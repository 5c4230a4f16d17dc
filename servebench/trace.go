package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/bench"
	"subgraphquery/internal/cluster"
	"subgraphquery/internal/core"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/obs"
)

// span is one timed call the traced replay made into a layer. Spans of
// one op share Op; Parent is the id of the span that caused it (0 for a
// root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"` // -1 for set-up spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay's set-up began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) id() int64 { return t.ids.Add(1) }

func (t *tracer) add(id, parent int64, op int, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, the count, total duration and self time
// (duration minus the part of the interval its children cover).
func (t *tracer) selfTimes() []nameTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*nameTime{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &nameTime{name: s.Name}
			agg[s.Name] = a
		}
		a.count++
		a.total += time.Duration(s.End - s.Start)
		a.self += time.Duration(s.End-s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]nameTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

type nameTime struct {
	name        string
	count       int
	total, self time.Duration
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi]: parallel children overlap and count once.
func covered(kids []span, lo, hi int64) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64 = 0, lo
	for _, k := range kids {
		s, e := max(k.Start, end), min(k.End, hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return time.Duration(total)
}

// queryRecorder is the Observer the replay passes into one Engine.Query:
// it accumulates the phase, verification and cache events, and the
// timing decorator files its inner-engine calls here.
type queryRecorder struct {
	tr   *tracer
	op   int
	span int64 // id of the enclosing core.query span

	mu                    sync.Mutex
	filter, index, verify time.Duration
	siTests               int
	hits                  int
	inner                 []time.Duration
}

func (r *queryRecorder) ObservePhase(name string, d time.Duration) {
	r.mu.Lock()
	switch name {
	case obs.PhaseFilter:
		r.filter += d
	case obs.PhaseIndexFilter:
		r.index += d
	case obs.PhaseVerify:
		r.verify += d
	}
	r.mu.Unlock()
}

func (r *queryRecorder) ObserveVerify(int, uint64, time.Duration, bool) {
	r.mu.Lock()
	r.siTests++
	r.mu.Unlock()
}

func (r *queryRecorder) ObserveCache(hit bool) {
	if hit {
		r.mu.Lock()
		r.hits++
		r.mu.Unlock()
	}
}

func (r *queryRecorder) ObserveWorkers(int)        {}
func (r *queryRecorder) ObservePanic(int)          {}
func (r *queryRecorder) ObserveFingerprint(uint64) {}

// timedEngine wraps a shard engine (or the engine under the cache) and
// times its Build and Query calls. It forwards core.Updatable, so appends
// through it reach the wrapped engine.
type timedEngine struct {
	core.Engine
	name   string // span name of its Query calls
	tr     *tracer
	builds *durations
}

type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.d = append(d.d, x)
	d.mu.Unlock()
}

func (e *timedEngine) Build(db *graph.Database, opts core.BuildOptions) error {
	t0 := time.Now()
	err := e.Engine.Build(db, opts)
	e.builds.add(time.Since(t0))
	return err
}

func (e *timedEngine) Query(q *graph.Graph, opts core.QueryOptions) *core.Result {
	t0 := time.Now()
	res := e.Engine.Query(q, opts)
	t1 := time.Now()
	if r, ok := opts.Observer.(*queryRecorder); ok {
		r.mu.Lock()
		r.inner = append(r.inner, t1.Sub(t0))
		r.mu.Unlock()
		e.tr.add(e.tr.id(), r.span, r.op, e.name, t0, t1)
	}
	return res
}

func (e *timedEngine) AppendGraph(g *graph.Graph) (int, error) {
	u, ok := e.Engine.(core.Updatable)
	if !ok {
		return 0, fmt.Errorf("%s does not support appends", e.Engine.Name())
	}
	return u.AppendGraph(g)
}

// stack is the engine stack sqserver builds for a workload, with every
// inner engine behind a timedEngine.
type stack struct {
	top    core.Engine
	inner  core.Engine // what the cache wraps (nil without a cache)
	cached *core.Cached
	coord  *cluster.Coordinator
	builds *durations
}

func newStack(w workload, tr *tracer) (*stack, error) {
	s := &stack{builds: &durations{}}
	span := "engine.inner"
	if w.shards > 0 {
		span = "engine.shard"
	}
	decorated := func() (core.Engine, error) {
		e, err := bench.NewEngine(w.engine)
		if err != nil {
			return nil, err
		}
		return &timedEngine{Engine: e, name: span, tr: tr, builds: s.builds}, nil
	}
	e, err := decorated()
	if err != nil {
		return nil, err
	}
	s.top = e
	if w.shards > 0 {
		s.coord, err = cluster.New(cluster.Config{
			Shards:   w.shards,
			BaseName: w.engine,
			Factory: func() core.Engine {
				e, _ := decorated() // the name resolved above
				return e
			},
		})
		if err != nil {
			return nil, err
		}
		s.top = s.coord
	}
	if w.cache > 0 {
		s.inner = s.top
		s.cached = core.NewCached(s.top, w.cache)
		s.top = s.cached
	}
	return s, nil
}

// readSample is what one replayed read measured.
type readSample struct {
	query, fp             time.Duration
	filter, index, verify time.Duration
	siTests               int
	candidates, answers   int
	steps                 uint64
	survivors             int
	hit                   bool
	inner                 []time.Duration
}

// replay is the traced in-process run of the op sequence.
type replay struct {
	parseS, dbMB      float64
	buildS            float64 // whole engine-stack Build
	shardBuilds       []time.Duration
	indexMB           float64
	reads             []readSample
	appends           []time.Duration
	wipes             int
	retries, hedges   uint64
	attempted, failed int
	wrong             int
	firstFailure      string
	spans             []nameTime
}

// runReplay parses the database file, builds the workload's engine stack
// and replays the op sequence on w.conns workers for d, then until it has
// minReads reads (bounded by 4d), recording spans and per-query events.
func runReplay(w workload, in *inputs, o *oracle, dbPath, spanPath string, d time.Duration, minReads int) (*replay, error) {
	tr := newTracer()
	rp := &replay{}
	f, err := os.Open(dbPath)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	db, err := sq.ReadDatabase(f) // as sqserver reads it
	t1 := time.Now()
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", dbPath, err)
	}
	tr.add(tr.id(), 0, -1, "graph.parse", t0, t1)
	rp.parseS, rp.dbMB = t1.Sub(t0).Seconds(), float64(db.MemoryFootprint())/(1<<20)

	st, err := newStack(w, tr)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	if err := st.top.Build(db, core.BuildOptions{}); err != nil {
		return nil, err
	}
	t1 = time.Now()
	tr.add(tr.id(), 0, -1, "core.build", t0, t1)
	rp.buildS, rp.shardBuilds = t1.Sub(t0).Seconds(), st.builds.d
	rp.indexMB = float64(st.top.IndexMemory()) / (1 << 20)
	var before cluster.Stats
	if st.coord != nil {
		before = st.coord.Stats()
	}

	log := newAppendLog()
	chk := newChecker(o, in, log)
	var lock sync.RWMutex // the server's database lock: appends exclude reads
	var mu sync.Mutex
	var next atomic.Int64
	var reads atomic.Int64
	start := time.Now()
	more := func() bool {
		el := time.Since(start)
		return el < d || (int(reads.Load()) < minReads && el < 4*d)
	}
	fail := func(why string) {
		mu.Lock()
		rp.failed++
		if rp.firstFailure == "" {
			rp.firstFailure = why
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for more() {
				i := int(next.Add(1) - 1)
				o := in.ops[i%len(in.ops)]
				opID, opStart := tr.id(), time.Now()
				mu.Lock()
				rp.attempted++
				mu.Unlock()
				if o.write {
					fresh := o.idx % len(in.fresh)
					lock.Lock()
					wiped := st.cached != nil && st.cached.IndexMemory() > st.inner.IndexMemory()
					a0 := time.Now()
					id, err := st.top.(core.Updatable).AppendGraph(in.fresh[fresh])
					a1 := time.Now()
					lock.Unlock()
					tr.add(tr.id(), opID, i, "core.append", a0, a1)
					tr.add(opID, 0, i, "op.write", opStart, time.Now())
					if err == nil {
						err = log.add(appendRec{fresh: fresh, id: id, sent: opStart, acked: time.Now()})
					}
					if err != nil {
						fail("append: " + err.Error())
						continue
					}
					mu.Lock()
					rp.appends = append(rp.appends, a1.Sub(a0))
					if wiped {
						rp.wipes++
					}
					mu.Unlock()
					continue
				}
				q := in.pool[o.idx]
				f0 := time.Now()
				fp := sq.ComputeFingerprint(q.g)
				f1 := time.Now()
				tr.add(tr.id(), opID, i, "telemetry.fingerprint", f0, f1)
				rec := &queryRecorder{tr: tr, op: i, span: tr.id()}
				ex := obs.NewExplain()
				lock.RLock()
				q0 := time.Now()
				res := st.top.Query(q.g, core.QueryOptions{
					Deadline: q0.Add(5 * time.Second), Fingerprint: fp, Observer: rec, Explain: ex,
				})
				q1 := time.Now()
				lock.RUnlock()
				tr.add(rec.span, opID, i, "core.query", q0, q1)
				done := time.Now()
				tr.add(opID, 0, i, "op.read", opStart, done)
				reads.Add(1)
				switch {
				case res.Err != nil:
					fail("query error: " + res.Err.Error())
					continue
				case res.TimedOut || res.Degraded || res.Skipped > 0:
					fail("incomplete answer")
					continue
				}
				if err := chk.checkRead(o.idx, false, res.Answers, opStart, done); err != nil {
					mu.Lock()
					rp.wrong++
					mu.Unlock()
					fail("oracle: " + err.Error())
					continue
				}
				s := readSample{
					query: q1.Sub(q0), fp: f1.Sub(f0),
					candidates: res.Candidates, answers: len(res.Answers), steps: res.VerifySteps,
				}
				rec.mu.Lock()
				s.filter, s.index, s.verify = rec.filter, rec.index, rec.verify
				s.siTests, s.hit, s.inner = rec.siTests, rec.hits > 0, rec.inner
				rec.mu.Unlock()
				for _, p := range ex.Snapshot().IndexProbes {
					if p.Index != "result-cache" {
						s.survivors += p.Survivors
					}
				}
				mu.Lock()
				rp.reads = append(rp.reads, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if st.coord != nil {
		after := st.coord.Stats()
		rp.retries, rp.hedges = after.Retries-before.Retries, after.Hedges-before.Hedges
	}
	rp.spans = tr.selfTimes()
	return rp, tr.write(spanPath)
}
