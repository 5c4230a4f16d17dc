package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it is one or two outliers, not a
// tail, so the reporter refuses it instead of printing a noisy number.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// or an error when fewer than minBeyond samples lie beyond it. samples is
// sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	// The epsilon keeps p·n that is integral on paper (0.99·1000) from
	// rounding up a rank.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median is the 0.5 percentile under the same refusal rule.
func median(samples []float64) (float64, error) { return percentile(samples, 0.5) }

// plainMedian is the median of a handful of repeated measurements (set-up
// times), where the percentile refusal rule does not apply.
func plainMedian(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reporting 0 for an empty base (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
