package core

import (
	"sort"
	"sync"
	"time"

	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// outcome is what testing one data graph found out; runGraphs folds it
// into the query's Result.
type outcome struct {
	filter, verify time.Duration
	steps          uint64
	// pass marks a graph that survived filtering: a member of C(q), even
	// if its enumeration later panics.
	pass bool
	// mem is the footprint of the candidate structure of a passing graph.
	mem   int64
	found bool
	// aborted marks a test cut short by the deadline or cancellation; the
	// answer set is then a lower bound.
	aborted bool
	// stop ends a sequential loop: the filter aborted mid-pass, so the
	// query is out of time.
	stop bool
	qe   *QueryError
}

// testFunc tests one data graph, writing what it learns into out as it
// goes, so a panic part-way keeps what was learnt before it. s is the
// calling loop's scratch arena.
type testFunc func(gid int, s *matching.Scratch, out *outcome)

// runGraphs is the per-graph loop of every engine: it tests the data
// graphs ids (or, with ids nil, graphs 0..n-1) in order and folds each
// outcome into res. It checks halt before taking on each graph, isolates
// each graph's panics (the graph is skipped, the query continues), and
// ticks the query's live handle. With workers > 1 the graphs are spread
// over a pool, each worker with its own scratch arena; sequentially one
// arena serves the whole query, so the loop allocates nothing per graph.
func runGraphs(name string, ids []int, n, workers int, opts *QueryOptions, res *Result, test testFunc) {
	o, h := opts.Observer, opts.Handle
	if workers <= 1 {
		s := matching.AcquireScratch()
		defer matching.ReleaseScratch(s)
		var out outcome
		for i := 0; i < n; i++ {
			if halt(opts, res) {
				break
			}
			gid := i
			if ids != nil {
				gid = ids[i]
			}
			testGraph(name, gid, o, s, &out, test)
			fold(res, gid, &out, opts)
			if out.stop {
				break
			}
			h.GraphDone()
		}
		return
	}

	// The pool is CPU-bound: workers is already capped at the scheduler's
	// parallelism (clampWorkers); surface the effective size in traces.
	if o != nil {
		o.ObserveWorkers(workers)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	jobs := make(chan int)
	worker := func() {
		defer wg.Done()
		defer func() {
			// Per-worker boundary for panics that escape the per-graph
			// guard (e.g. in arena bookkeeping): record a query-level
			// error and keep draining so the producer never blocks on a
			// dead pool — a panic escaping a worker goroutine would kill
			// the process, not just the query.
			if v := recover(); v != nil {
				obs.Panics.Inc()
				if o != nil {
					o.ObservePanic(-1)
				}
				mu.Lock()
				if res.Err == nil {
					res.Err = newPanicError(name, -1, v)
				}
				mu.Unlock()
				for range jobs { //nolint — drain
				}
			}
		}()
		s := matching.AcquireScratch()
		defer matching.ReleaseScratch(s)
		var out outcome
		for gid := range jobs {
			testGraph(name, gid, o, s, &out, test)
			mu.Lock()
			fold(res, gid, &out, opts)
			mu.Unlock()
			h.GraphDone()
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go worker()
	}
	for i := 0; i < n; i++ {
		mu.Lock()
		stop := halt(opts, res)
		mu.Unlock()
		if stop {
			break
		}
		gid := i
		if ids != nil {
			gid = ids[i]
		}
		select {
		case jobs <- gid:
		case <-opts.Cancel:
			// Cancelled while every worker is busy: stop feeding the pool
			// instead of blocking on the send forever. The halt check at
			// the top of the next iteration records the cancellation on
			// the result; a nil Cancel never fires, so the select
			// degenerates to the plain send.
		}
	}
	close(jobs)
	wg.Wait()
	sort.Ints(res.Answers)
}

// testGraph runs test on one data graph behind the graph's own panic
// boundary: a panic becomes out.qe and the graph is skipped.
func testGraph(name string, gid int, o obs.Observer, s *matching.Scratch, out *outcome, test testFunc) {
	*out = outcome{}
	defer graphGuard(name, gid, o, &out.qe)
	test(gid, s, out)
}

// fold adds one graph's outcome to res (pooled callers hold the result
// mutex). A graph that passed filtering counts in Candidates and AuxMemory
// even when it was then skipped.
func fold(res *Result, gid int, out *outcome, opts *QueryOptions) {
	h := opts.Handle
	res.FilterTime += out.filter
	res.VerifyTime += out.verify
	if out.pass {
		res.Candidates++
		h.AddCandidates(1)
		if out.mem > res.AuxMemory {
			res.AuxMemory = out.mem
			h.GrowAux(out.mem)
		}
	}
	if out.qe != nil {
		recordGraphError(res, out.qe)
		return
	}
	res.VerifySteps += out.steps
	if out.aborted {
		noteAbort(opts, res)
	}
	if out.found {
		res.Answers = append(res.Answers, gid)
		h.AddAnswers(1)
	}
}
