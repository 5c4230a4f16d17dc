package core

import (
	"sort"
	"sync"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// Cached wraps an engine with a subgraph-query result cache in the spirit
// of GraphCache (Wang, Ntarmos and Triantafillou [33], [34], discussed in
// the paper's §II-B "Other Approaches"). Past answer sets speed up related
// queries through the two containment monotonicity rules:
//
//   - subgraph hit: if a cached query q' ⊆ q, then A(q) ⊆ A(q'), so A(q')
//     replaces the database as the candidate pool;
//   - supergraph hit: if a cached query q” ⊇ q, then A(q”) ⊆ A(q), so
//     members of A(q”) need no verification at all.
//
// Cache probes are subgraph isomorphism tests between *query* graphs —
// tiny, so probing is cheap relative to querying the database.
type Cached struct {
	inner Engine
	db    *graph.Database

	mu      sync.Mutex
	entries []cacheEntry
	max     int

	// Hits and Misses count cache outcomes for inspection.
	Hits, Misses int
}

type cacheEntry struct {
	query   *graph.Graph
	answers []int
}

// NewCached wraps inner with a result cache of the given capacity
// (0 selects 64 entries).
func NewCached(inner Engine, capacity int) *Cached {
	if capacity <= 0 {
		capacity = 64
	}
	return &Cached{inner: inner, max: capacity}
}

// Name implements Engine.
func (e *Cached) Name() string { return e.inner.Name() + "+cache" }

// Build implements Engine and clears the cache: cached answer sets are
// only valid for the database they were computed on.
func (e *Cached) Build(db *graph.Database, opts BuildOptions) error {
	e.mu.Lock()
	e.entries = nil
	e.db = db
	e.mu.Unlock()
	return e.inner.Build(db, opts)
}

// IndexMemory implements Engine.
func (e *Cached) IndexMemory() int64 {
	var cache int64
	e.mu.Lock()
	for _, ent := range e.entries {
		cache += ent.query.MemoryFootprint() + int64(len(ent.answers))*8
	}
	e.mu.Unlock()
	return e.inner.IndexMemory() + cache
}

// Query implements Engine.
func (e *Cached) Query(q *graph.Graph, opts QueryOptions) *Result {
	// Fingerprint before probing so hit and miss paths report the same
	// hash, and the inner engine (which sees it already set in opts) does
	// not recompute it.
	fp := fingerprintQuery(q, &opts)
	if res, done := degenerate(q); done {
		res.Fingerprint = fp
		return res
	}
	// One live handle for the whole wrapped query: written back into opts
	// so the inner engine (miss path) ticks it instead of registering a
	// second one, and passed to verifyPool (hit path) the same way.
	_, untrack := trackInflight(e.Name(), &opts)
	defer untrack()

	// Cache probing runs outside the inner engine's panic boundary, so it
	// carries its own: a probe panic falls back to a plain miss (the cache
	// is an accelerator, never a correctness dependency).
	pool, confirmed, probed := e.probe(q)
	if !probed {
		pool, confirmed = nil, nil
	}

	var res *Result
	if pool == nil {
		e.mu.Lock()
		e.Misses++
		e.mu.Unlock()
		if o := opts.Observer; o != nil {
			o.ObserveCache(false)
		}
		res = e.inner.Query(q, opts)
	} else {
		e.mu.Lock()
		e.Hits++
		e.mu.Unlock()
		if o := opts.Observer; o != nil {
			o.ObserveCache(true)
		}
		if ex := opts.Explain; ex != nil {
			// The cached answer pool acted as the index here; report it as
			// a probe so EXPLAIN shows where the candidates came from.
			e.mu.Lock()
			entries := len(e.entries)
			e.mu.Unlock()
			ex.ObserveIndexProbe(obs.IndexProbe{
				Index:     "result-cache",
				Features:  entries,
				Survivors: len(pool),
			})
		}
		res = e.verifyPool(q, pool, confirmed, opts)
	}
	// After delegating: the outermost engine name wins in the report, and
	// the hit path (verifyPool, no engine entry) stamps the fingerprint.
	res.Fingerprint = fp
	opts.Explain.SetEngine(e.Name())
	// Only complete answer sets are cacheable: a timed-out, cancelled,
	// failed or partially-skipped query yields a lower bound that would
	// poison later containment reasoning.
	if !res.TimedOut && res.Err == nil && res.Skipped == 0 {
		e.store(q, res.Answers)
	}
	return res
}

// probe scans the cache for containment hits; ok is false when the probe
// panicked (treated as a miss by the caller).
func (e *Cached) probe(q *graph.Graph) (pool []int, confirmed map[int]bool, ok bool) {
	defer func() {
		if v := recover(); v != nil {
			obs.Panics.Inc()
			ok = false
		}
	}()
	// Find the tightest subgraph hit (smallest answer pool) and union the
	// supergraph hits' answers.
	probeOpts := matching.Options{StepBudget: 1 << 16} // query graphs are tiny
	confirmed = map[int]bool{}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ent := range e.entries {
		if (matching.CFQL{}).FindFirst(ent.query, q, probeOpts).Found() {
			// ent.query ⊆ q: answers of q are among ent.answers.
			if pool == nil || len(ent.answers) < len(pool) {
				pool = ent.answers
			}
		} else if (matching.CFQL{}).FindFirst(q, ent.query, probeOpts).Found() {
			// q ⊆ ent.query: every answer of ent is an answer of q.
			for _, id := range ent.answers {
				confirmed[id] = true
			}
		}
	}
	return pool, confirmed, true
}

// verifyPool answers q by testing only the graphs of the candidate pool,
// skipping those already confirmed by a supergraph hit.
func (e *Cached) verifyPool(q *graph.Graph, pool []int, confirmed map[int]bool, opts QueryOptions) (res *Result) {
	res = &Result{Candidates: len(pool)}
	o := opts.Observer
	defer queryGuard(e.Name(), o, res)
	h := opts.Handle
	h.SetPhase(inflight.PhaseVerify)
	h.SetGraphsTotal(len(pool))
	h.AddCandidates(len(pool))
	t0 := time.Now()
	// Graphs confirmed by a supergraph hit are answers without a subgraph
	// isomorphism test, so they emit no verification event; only the rest
	// of the pool is tested.
	rest := pool
	if len(confirmed) > 0 {
		rest = nil
		for _, gid := range pool {
			if !confirmed[gid] {
				rest = append(rest, gid)
				continue
			}
			res.Answers = append(res.Answers, gid)
			h.GraphDone()
			h.AddAnswers(1)
		}
	}
	runGraphs(e.Name(), rest, len(rest), 1, &opts, res, matchTest(cfqlMatch, e.db, q, &opts))
	sort.Ints(res.Answers)
	res.VerifyTime = time.Since(t0)
	if o != nil {
		o.ObservePhase(obs.PhaseVerify, res.VerifyTime)
	}
	return res
}

func cfqlMatch(q, g *graph.Graph, opts matching.Options) matching.Result {
	return matching.CFQL{}.FindFirst(q, g, opts)
}

// store inserts the (query, answers) pair, evicting the oldest entry when
// full.
func (e *Cached) store(q *graph.Graph, answers []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := cacheEntry{query: q, answers: append([]int(nil), answers...)}
	if len(e.entries) == e.max {
		copy(e.entries, e.entries[1:])
		e.entries[len(e.entries)-1] = ent
		return
	}
	e.entries = append(e.entries, ent)
}

// AppendGraph implements Updatable when the inner engine does; the cache
// is invalidated because cached answer sets may miss the new graph.
func (e *Cached) AppendGraph(g *graph.Graph) (int, error) {
	u, ok := e.inner.(Updatable)
	if !ok {
		return 0, errNotUpdatable(e.inner.Name())
	}
	gid, err := u.AppendGraph(g)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.entries = nil
	e.mu.Unlock()
	return gid, nil
}

func errNotUpdatable(name string) error {
	return &notUpdatableError{name}
}

type notUpdatableError struct{ name string }

func (e *notUpdatableError) Error() string {
	return "core: " + e.name + " does not support incremental updates"
}
