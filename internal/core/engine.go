package core

import (
	"fmt"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/index"
	"subgraphquery/internal/inflight"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// engine is every query engine configuration of the paper's framework: an
// optional graph database index narrows the database (IFV, Algorithm 1;
// IvcFV, §III-C), then each remaining data graph is tested, either by the
// fused vertex-connectivity filtering and enumeration of Algorithm 2
// (filter+order) or by one first-match subgraph isomorphism test (match).
type engine struct {
	name string
	// idx, when non-nil, is probed first and only its survivors are
	// tested; nil means index-free, every data graph is tested.
	idx index.Index
	// filter builds a data graph's candidate vertex sets (the
	// preprocessing phase of a subgraph matching algorithm); graphs with no
	// empty set form C(q) and are verified by Enumerate, stopped at the
	// first embedding, along the matching order that order computes. Both
	// receive the per-query (per-worker) Scratch arena and must run
	// allocation-free; with a nil Explain the filter must behave exactly
	// like the plain filter.
	filter func(q, g *graph.Graph, opts matching.FilterOptions) *matching.Candidates
	order  func(q, g *graph.Graph, cand *matching.Candidates, s *matching.Scratch) []graph.VertexID
	// match, set instead of filter and order, tests one data graph; every
	// graph handed to it counts as a candidate.
	match matchFunc
	// workers is the default parallelism of index construction and, on
	// engines that take QueryOptions.Workers, of per-graph testing (Grapes
	// runs with 6 threads in the paper); 0 or 1 runs sequentially.
	workers int

	db    *graph.Database
	built bool
}

// matchFunc is a first-match subgraph isomorphism test.
type matchFunc func(q, g *graph.Graph, opts matching.Options) matching.Result

func vf2Match(q, g *graph.Graph, opts matching.Options) matching.Result {
	return (&matching.VF2{}).FindFirst(q, g, opts)
}

// ctIndexMatch is CT-Index's modified VF2, whose static matching order is
// optimized per query and data graph.
func ctIndexMatch(q, g *graph.Graph, opts matching.Options) matching.Result {
	return (&matching.VF2{Order: matching.CTIndexOrder(q, g)}).FindFirst(q, g, opts)
}

func turboIsoMatch(q, g *graph.Graph, opts matching.Options) matching.Result {
	return matching.TurboIso{}.FindFirst(q, g, opts)
}

func graphQLOrder(q, _ *graph.Graph, cand *matching.Candidates, s *matching.Scratch) []graph.VertexID {
	return matching.GraphQLOrderScratch(q, cand, s)
}

// NewCFL returns the vcFV engine that integrates CFL [1]: CFL's
// preprocessing as Filter and CFL's path-based enumeration as Verify.
func NewCFL() Engine {
	return &engine{name: "CFL", filter: matching.CFLFilter, order: matching.CFLOrderScratch}
}

// NewGraphQL returns the vcFV engine that integrates GraphQL [14]:
// GraphQL's preprocessing as Filter and its join-based enumeration as
// Verify.
func NewGraphQL() Engine {
	return &engine{name: "GraphQL", filter: matching.GraphQLFilter, order: graphQLOrder}
}

// NewCFQL returns the paper's hybrid vcFV engine: CFL's Filter (faster)
// with GraphQL's join-based Verify (more robust), §III-B.
func NewCFQL() Engine {
	return &engine{name: "CFQL", filter: matching.CFLFilter, order: graphQLOrder}
}

// NewParallelCFQL returns a CFQL engine whose filtering and verification
// run on a pool of the given number of workers (0 selects 6, matching the
// Grapes configuration) — an extension beyond the paper's single-threaded
// vcFV that quantifies the headroom of Algorithm 2's embarrassingly
// parallel loop. The count is clamped to runtime.GOMAXPROCS(0) at query
// time; the effective pool size is reported via Observer.ObserveWorkers.
func NewParallelCFQL(workers int) Engine {
	if workers <= 0 {
		workers = 6
	}
	return &engine{name: "CFQL-parallel", filter: matching.CFLFilter, order: graphQLOrder, workers: workers}
}

// NewGrapes returns the Grapes IFV engine: path-trie index with occurrence
// counts and parallel VF2 verification (6 workers by default, the paper's
// configuration).
func NewGrapes() Engine {
	return &engine{name: "Grapes", idx: &index.Grapes{}, match: vf2Match, workers: 6}
}

// NewGGSX returns the GGSX IFV engine: suffix-tree path index and VF2
// verification, sequential unless QueryOptions.Workers asks for a pool.
func NewGGSX() Engine {
	return &engine{name: "GGSX", idx: &index.GGSX{}, match: vf2Match}
}

// NewCTIndex returns the CT-Index IFV engine: tree/cycle fingerprint index
// and a modified VF2 whose matching order is optimized per query.
func NewCTIndex() Engine {
	return &engine{name: "CT-Index", idx: &index.CTIndex{}, match: ctIndexMatch}
}

// NewGraphGrep returns the GraphGrep IFV engine: hashed path fingerprints
// with occurrence counts (Table II's earliest enumeration-based method).
func NewGraphGrep() Engine {
	return &engine{name: "GraphGrep", idx: &index.GraphGrep{}, match: vf2Match}
}

// NewGIndex returns a mining-based IFV engine in the spirit of gIndex:
// frequent, discriminative path features (Table II's mining-based row).
func NewGIndex() Engine {
	return &engine{name: "gIndex", idx: &index.GIndexLite{}, match: vf2Match}
}

// NewTreePi returns a mining-based IFV engine in the spirit of TreePi /
// SwiftIndex: frequent subtree features with AHU canonical codes.
func NewTreePi() Engine {
	return &engine{name: "TreePi", idx: &index.TreePiLite{}, match: vf2Match}
}

// NewFGIndex returns a mining-based IFV engine in the spirit of FG-Index:
// frequent connected-subgraph features with exact canonical codes, and
// verification-free answers for queries that match a feature verbatim.
func NewFGIndex() Engine {
	return &engine{name: "FG-Index", idx: &index.FGIndexLite{}, match: vf2Match}
}

// NewVcGrapes returns the vcGrapes IvcFV engine: Grapes' trie index plus
// CFQL filtering and verification, with Grapes' parallel configuration.
// CT-Index has no IvcFV counterpart: its indexing fails on large datasets.
func NewVcGrapes() Engine {
	return &engine{name: "vcGrapes", idx: &index.Grapes{}, filter: matching.CFLFilter, order: graphQLOrder, workers: 6}
}

// NewVcGGSX returns the vcGGSX IvcFV engine: GGSX's suffix-tree index plus
// CFQL filtering and verification.
func NewVcGGSX() Engine {
	return &engine{name: "vcGGSX", idx: &index.GGSX{}, filter: matching.CFLFilter, order: graphQLOrder}
}

// NewScan returns the naive baseline of §III-B's opening: a VF2 first-match
// test against every data graph with no filtering at all. It doubles as
// the ground-truth oracle in tests and as the ablation baseline
// quantifying what filtering buys.
func NewScan() Engine {
	return &engine{name: "Scan-VF2", match: vf2Match}
}

// NewTurboIso returns the TurboIso-based query engine: the TurboIso
// matcher [11] run first-match against every data graph. TurboIso
// interleaves its candidate-region filtering with enumeration, so the
// paper's filter/verify split does not apply: all time is reported as
// verification and every data graph counts as a candidate, like the scan
// baseline.
func NewTurboIso() Engine {
	return &engine{name: "TurboIso", match: turboIsoMatch}
}

// HasIndex reports whether e builds a persistent graph database index.
func HasIndex(e Engine) bool {
	x, ok := e.(*engine)
	return ok && x.idx != nil
}

// Name implements Engine.
func (e *engine) Name() string { return e.name }

// Build implements Engine: it constructs the index over the database;
// index-free engines only retain the reference.
func (e *engine) Build(db *graph.Database, opts BuildOptions) error {
	e.db = db
	if e.idx == nil {
		return nil
	}
	e.built = false
	workers := opts.Workers
	if workers == 0 {
		workers = e.workers
	}
	err := e.idx.Build(db, index.BuildOptions{
		Deadline:    opts.Deadline,
		Cancel:      opts.Cancel,
		MaxFeatures: opts.MaxFeatures,
		Workers:     workers,
	})
	e.built = err == nil
	return err
}

// IndexMemory implements Engine; 0 for index-free engines.
func (e *engine) IndexMemory() int64 {
	if !e.built {
		return 0
	}
	return e.idx.MemoryFootprint()
}

// AppendGraph implements Updatable: index-free engines only grow the
// database; indexed engines also insert the graph into an index that
// supports incremental insertion (index.Appender).
func (e *engine) AppendGraph(g *graph.Graph) (int, error) {
	if e.idx == nil {
		return e.db.Append(g), nil
	}
	app, ok := e.idx.(index.Appender)
	if !ok {
		return 0, fmt.Errorf("core: %s index does not support incremental updates; rebuild with Build", e.name)
	}
	if !e.built {
		return 0, fmt.Errorf("core: %s index not built", e.name)
	}
	gid := e.db.Append(g)
	if err := app.InsertGraph(g, gid); err != nil {
		return 0, err
	}
	return gid, nil
}

// poolSize resolves the number of workers testing data graphs.
// QueryOptions.Workers overrides the default on indexed engines and on
// engines built with a pool (CFQL-parallel); the other index-free engines
// always run sequentially.
func (e *engine) poolSize(requested int) int {
	n := e.workers
	if requested != 0 && (e.idx != nil || e.workers > 0) {
		n = requested
	}
	return clampWorkers(n)
}

// Query implements Engine. Index survivors (or, index-free, all data
// graphs) are tested by runGraphs. Fused filter+verify engines report
// FilterTime and VerifyTime as sums of per-graph work, across workers when
// pooled, with the index probe counted as filtering; match engines report
// wall-clock verification time.
func (e *engine) Query(q *graph.Graph, opts QueryOptions) (res *Result) {
	fp := fingerprintQuery(q, &opts)
	if r, done := degenerate(q); done {
		r.Fingerprint = fp
		return r
	}
	res = &Result{Fingerprint: fp}
	o := opts.Observer
	defer queryGuard(e.name, o, res)
	h, untrack := trackInflight(e.name, &opts)
	defer untrack()
	ex := opts.Explain

	var ids []int
	n := e.db.Len()
	if e.idx != nil {
		h.SetPhase(inflight.PhaseFilter)
		if e.match != nil && halt(&opts, res) {
			// Already cancelled or past deadline: don't even probe the
			// index. FG-Index's verification-free path would otherwise
			// return a complete answer for a query the caller abandoned.
			return res
		}
		ex.SetEngine(e.name)
		t0 := time.Now()
		var exact bool
		ids, exact = e.probe(q, ex)
		res.FilterTime = time.Since(t0)
		n = len(ids)
		if exact {
			// Verification-free answer (FG-Index): the posting list is
			// A(q) already.
			res.Candidates = n
			res.Answers = ids
			if o != nil {
				o.ObservePhase(obs.PhaseFilter, res.FilterTime)
			}
			return res
		}
		if o != nil {
			if e.match != nil {
				o.ObservePhase(obs.PhaseFilter, res.FilterTime)
			} else {
				// Sub-span of the filter phase: the index probe alone, so
				// traces can attribute filtering cost between IvcFV's two
				// levels.
				o.ObservePhase(obs.PhaseIndexFilter, res.FilterTime)
			}
		}
	}
	ex.SetEngine(e.name)
	workers := e.poolSize(opts.Workers)

	if e.match != nil {
		res.Candidates = n
		h.SetPhase(inflight.PhaseVerify)
		h.SetGraphsTotal(n)
		h.AddCandidates(n)
		t1 := time.Now()
		runGraphs(e.name, ids, n, workers, &opts, res, matchTest(e.match, e.db, q, &opts))
		res.VerifyTime = time.Since(t1)
		if o != nil {
			o.ObservePhase(obs.PhaseVerify, res.VerifyTime)
		}
		return res
	}
	h.SetPhase(inflight.PhaseFused)
	h.SetGraphsTotal(n)
	runGraphs(e.name, ids, n, workers, &opts, res, e.fusedTest(q, &opts))
	if o != nil {
		o.ObservePhase(obs.PhaseFilter, res.FilterTime)
		o.ObservePhase(obs.PhaseVerify, res.VerifyTime)
	}
	return res
}

// probe narrows the database to the index survivors; exact reports that
// they are the answer set already (FG-Index's verification-free hits).
func (e *engine) probe(q *graph.Graph, ex *obs.Explain) (ids []int, exact bool) {
	if ef, ok := e.idx.(index.ExactFilter); ok {
		return ef.FilterExact(q)
	}
	if ei, ok := e.idx.(index.Explainable); ok && ex != nil {
		// Per-probe statistics for the EXPLAIN report.
		return ei.FilterExplain(q, ex), false
	}
	return e.idx.Filter(q), false
}

// fusedTest returns Algorithm 2's loop body: filter one data graph into
// the arena, and enumerate the survivors of filtering to their first
// embedding before the arena is reused for the next graph.
func (e *engine) fusedTest(q *graph.Graph, opts *QueryOptions) testFunc {
	o, ex, h := opts.Observer, opts.Explain, opts.Handle
	return func(gid int, s *matching.Scratch, out *outcome) {
		g := e.db.Graph(gid)
		t0 := time.Now()
		cand := e.filter(q, g, matching.FilterOptions{
			Deadline:     opts.Deadline,
			Cancel:       opts.Cancel,
			MemoryBudget: opts.MemoryBudget,
			Explain:      ex,
			Scratch:      s,
		})
		out.filter = time.Since(t0)
		if cand.BudgetExceeded {
			// Skip this graph with a budget error; the remaining graphs
			// may still fit.
			out.qe = newBudgetError(e.name, gid, opts.MemoryBudget)
			return
		}
		if cand.Aborted {
			// The filter hit the deadline (or cancellation) mid-pass: its
			// sets prove nothing about this graph.
			out.aborted, out.stop = true, true
			return
		}
		if cand.AnyEmpty() {
			return
		}
		out.pass = true
		out.mem = cand.MemoryFootprint()

		t1 := time.Now()
		order := e.order(q, g, cand, s)
		observeOrder(ex, order, cand)
		r, err := matching.Enumerate(q, g, cand, order, matching.Options{
			Limit:      1,
			Deadline:   opts.Deadline,
			Cancel:     opts.Cancel,
			StepBudget: opts.StepBudgetPerGraph,
			Scratch:    s,
			Progress:   h.StepCounter(),
		})
		if err != nil {
			// Orders from the built-in strategies are always valid for
			// connected queries; surface misuse loudly.
			panic(err)
		}
		out.verify = time.Since(t1)
		if o != nil {
			o.ObserveVerify(gid, r.Steps, out.verify, r.Found())
		}
		ex.ObserveEnumerate(r.Jumps, r.Redos, r.ProbeIsects, r.MergeIsects)
		out.steps, out.aborted, out.found = r.Steps, r.Aborted, r.Found()
	}
}

// matchTest returns the loop body of the IFV verification step: one
// first-match subgraph isomorphism test of q against a data graph of db.
func matchTest(match matchFunc, db *graph.Database, q *graph.Graph, opts *QueryOptions) testFunc {
	o, h := opts.Observer, opts.Handle
	return func(gid int, _ *matching.Scratch, out *outcome) {
		var tv time.Time
		if o != nil {
			tv = time.Now()
		}
		r := match(q, db.Graph(gid), matching.Options{
			Deadline:   opts.Deadline,
			Cancel:     opts.Cancel,
			StepBudget: opts.StepBudgetPerGraph,
			Progress:   h.StepCounter(),
		})
		if o != nil {
			o.ObserveVerify(gid, r.Steps, time.Since(tv), r.Found())
		}
		out.steps, out.aborted, out.found = r.Steps, r.Aborted, r.Found()
	}
}
