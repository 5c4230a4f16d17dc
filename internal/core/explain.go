package core

import (
	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// observeOrder records a matching order with per-vertex selectivity into
// the Explain report (no-op with a nil Explain; allocates nothing then).
func observeOrder(ex *obs.Explain, order []graph.VertexID, cand *matching.Candidates) {
	if ex == nil {
		return
	}
	steps := make([]obs.OrderStep, len(order))
	for i, u := range order {
		steps[i] = obs.OrderStep{Vertex: int(u), Candidates: cand.Count(u)}
	}
	ex.ObserveOrder(steps)
}
