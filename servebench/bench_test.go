package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"subgraphquery/internal/core"
	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// tiny is a unit-test-scale workload: 200 AIDS-like graphs, 60 pool
// queries, Zipf reads with appends.
var tiny = workload{
	name: "tiny", dataset: gen.AIDS, scale: 0.005,
	engine: "CFQL", cache: 64, oracle: "vcGrapes", conns: 2,
	perSet: 5, writeShare: 0.05, zipf: 1.1,
}

func tinyInputs(t *testing.T, seed int64) (*inputs, *oracle) {
	t.Helper()
	in, err := makeInputs(tiny, seed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := buildOracle(tiny, in, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in.plan(tiny, seed, o)
	return in, o
}

func TestOpsDeterministicPerSeed(t *testing.T) {
	a, _ := tinyInputs(t, 7)
	b, _ := tinyInputs(t, 7)
	c, _ := tinyInputs(t, 8)
	if a.digest != b.digest || !slices.Equal(a.ops, b.ops) {
		t.Fatalf("equal seeds gave different inputs: %s vs %s", a.digest, b.digest)
	}
	if a.digest == c.digest || slices.Equal(a.ops, c.ops) {
		t.Fatalf("different seeds gave identical inputs %s", a.digest)
	}
	writes := 0
	for _, o := range a.ops {
		if o.write {
			writes++
		}
	}
	if share := float64(writes) / float64(len(a.ops)); share < 0.04 || share > 0.06 {
		t.Fatalf("write share %.3f, want about %.2f", share, tiny.writeShare)
	}
}

// TestSweepOrderStratified checks the distinct-query op order: each pool
// query exactly once, equal seeds equal, and every round of twelve ops one
// query of each set, so any prefix a run reaches holds the same mix.
func TestSweepOrderStratified(t *testing.T) {
	const perSet = 9
	var pool []query
	var answers [][]int
	for _, cfg := range querySets {
		for k := 0; k < perSet; k++ {
			pool = append(pool, query{set: cfg.Name()})
			answers = append(answers, make([]int, k))
		}
	}
	sweep := workload{name: "sweep"}
	a := makeOps(sweep, 7, pool, answers)
	if b := makeOps(sweep, 7, pool, answers); !slices.Equal(a, b) {
		t.Fatal("equal seeds gave different op orders")
	}
	if c := makeOps(sweep, 8, pool, answers); slices.Equal(a, c) {
		t.Fatal("different seeds gave the same op order")
	}
	if len(a) != len(pool) {
		t.Fatalf("%d ops for a pool of %d", len(a), len(pool))
	}
	sent := make([]bool, len(pool))
	for i, o := range a {
		if o.write || sent[o.idx] {
			t.Fatalf("op %d: %+v is a write or a repeat", i, o)
		}
		sent[o.idx] = true
	}
	for start := 0; start < len(a); start += len(querySets) {
		sets := map[string]bool{}
		for _, o := range a[start : start+len(querySets)] {
			sets[pool[o.idx].set] = true
		}
		if len(sets) != len(querySets) {
			t.Fatalf("round at op %d covers %d of %d sets", start, len(sets), len(querySets))
		}
	}
}

// TestZipfReadsMeetQuotas checks that every prefix of whole blocks holds
// each rank close to its expected count under P(k) ∝ (1+k)^-s. Quotas are
// exact at the stream's own block ends; between them the shuffle leaves
// part of a block unsent, which over 50 seeds kept every rank within 8.4
// reads of expected, where independent draws strayed by up to 60.
func TestZipfReadsMeetQuotas(t *testing.T) {
	const ranks, n, s, slack = 300, 40 * zipfBlock, 1.1, 10
	reads := zipfReads(rand.New(rand.NewSource(1)), s, ranks, n)
	if len(reads) != n {
		t.Fatalf("%d reads, want %d", len(reads), n)
	}
	var total float64
	for k := 0; k < ranks; k++ {
		total += math.Pow(float64(1+k), -s)
	}
	count := make([]int, ranks)
	for i, k := range reads {
		count[k]++
		if m := i + 1; m%zipfBlock == 0 {
			for k := range count {
				if want := float64(m) * math.Pow(float64(1+k), -s) / total; math.Abs(float64(count[k])-want) > slack {
					t.Fatalf("after %d reads rank %d came %d times, want %.2f", m, k, count[k], want)
				}
			}
		}
	}
	if again := zipfReads(rand.New(rand.NewSource(1)), s, ranks, n); !slices.Equal(reads, again) {
		t.Fatal("equal seeds gave different streams")
	}
}

func TestPoolDistinctAndDisjointFromWarmup(t *testing.T) {
	in, _ := tinyInputs(t, 3)
	seen := map[uint64]bool{}
	for _, q := range append(append([]query(nil), in.warm...), in.pool...) {
		if seen[uint64(q.fp)] {
			t.Fatalf("fingerprint %v repeated across pool and warm-up", q.fp)
		}
		seen[uint64(q.fp)] = true
	}
	if len(in.warm) != warmPerSet*len(querySets) {
		t.Fatalf("warm-up has %d queries", len(in.warm))
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
	}
	for _, c := range cases {
		got, err := percentile(xs(c.n), c.p)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("p%g of %d: got %v, %v; want ok=%v %v", c.p*100, c.n, got, err, c.ok, c.want)
		}
	}
}

// dropOne is an engine that loses the last answer of every query.
type dropOne struct{ core.Engine }

func (e dropOne) Query(q *graph.Graph, opts core.QueryOptions) *core.Result {
	res := e.Engine.Query(q, opts)
	if n := len(res.Answers); n > 0 {
		res.Answers = res.Answers[:n-1]
	}
	return res
}

func TestOracleRejectsDroppedAnswer(t *testing.T) {
	in, o := tinyInputs(t, 5)
	chk := newChecker(o, in, newAppendLog())
	good := core.NewCFQL()
	if err := good.Build(in.db, core.BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	bad := dropOne{good}
	now := time.Now()
	for i, q := range in.pool {
		if err := chk.checkRead(i, false, good.Query(q.g, core.QueryOptions{}).Answers, now, now); err != nil {
			t.Fatalf("correct engine rejected on query %d: %v", i, err)
		}
		if chk.checkRead(i, false, bad.Query(q.g, core.QueryOptions{}).Answers, now, now) == nil {
			t.Fatalf("engine that drops an answer passed on query %d", i)
		}
	}
}

func TestOracleAppendVisibility(t *testing.T) {
	in, o := tinyInputs(t, 5)
	log := newAppendLog()
	chk := newChecker(o, in, log)
	// Query 0 is contained in a fresh graph that is its own copy.
	in.fresh = append(in.fresh[:0:0], in.pool[0].g)
	t0 := time.Now()
	id := o.base
	if err := log.add(appendRec{fresh: 0, id: id, sent: t0, acked: t0.Add(time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	ref := o.pool[0]
	with := append(append([]int(nil), ref...), id)
	after := t0.Add(time.Second)
	if err := chk.checkRead(0, false, with, after, after.Add(time.Millisecond)); err != nil {
		t.Fatalf("acknowledged append present: %v", err)
	}
	if chk.checkRead(0, false, ref, after, after.Add(time.Millisecond)) == nil {
		t.Fatal("acknowledged containing append missing, yet accepted")
	}
	// In flight during the read: either way is correct.
	during := t0.Add(-time.Microsecond)
	for _, got := range [][]int{ref, with} {
		if err := chk.checkRead(0, false, got, during, t0.Add(time.Second)); err != nil {
			t.Fatalf("in-flight append: %v", err)
		}
	}
	// Sent after the read returned: must not appear.
	if chk.checkRead(0, false, with, t0.Add(-time.Second), t0.Add(-time.Millisecond)) == nil {
		t.Fatal("append sent after the read returned was accepted")
	}
	if chk.checkRead(0, false, append(append([]int(nil), ref...), id+1), after, after) == nil {
		t.Fatal("unknown appended id accepted")
	}
}

func TestFailedResponsesCount(t *testing.T) {
	in, o := tinyInputs(t, 5)
	bodies := map[string]func(w http.ResponseWriter){
		"shed": func(w http.ResponseWriter) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server at capacity, retry later", http.StatusTooManyRequests)
		},
		"timed_out": func(w http.ResponseWriter) { fmt.Fprint(w, `{"answers":[],"timed_out":true}`) },
		"degraded":  func(w http.ResponseWriter) { fmt.Fprint(w, `{"answers":[],"degraded":true}`) },
		"skipped":   func(w http.ResponseWriter) { fmt.Fprint(w, `{"answers":[],"skipped":2}`) },
		"cancelled": func(w http.ResponseWriter) { fmt.Fprint(w, `{"answers":[],"cancelled":true}`) },
	}
	for name, reply := range bodies {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { reply(w) }))
		lg := newLoadGen(srv.URL, tiny.conns, in, newAppendLog())
		ph := lg.run(50*time.Millisecond, false)
		lg.close()
		srv.Close()
		st := ph.check(newChecker(o, in, lg.log))
		if st.attempted == 0 || st.failed != st.attempted || len(st.reads)+len(st.writes) != 0 {
			t.Errorf("%s: %d of %d ops failed, %d latencies kept", name, st.failed, st.attempted, len(st.reads)+len(st.writes))
		}
		if st.wrong != 0 {
			t.Errorf("%s: counted as an oracle mismatch", name)
		}
	}
	if _, why := classifyRead(http.StatusOK, []byte(`{"answers":[1,2]}`)); why != "" {
		t.Fatalf("complete answer classified as failed: %s", why)
	}
	if _, why := classifyRead(http.StatusTooManyRequests, nil); !strings.Contains(why, "429") {
		t.Fatalf("429 classified as %q", why)
	}
}

// BENCHMARK.json at the repository root must describe exactly what
// servebench reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in servebench", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v vs %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in servebench", len(bj.EndToEnd), len(endToEnd))
	}
	for _, m := range bj.EndToEnd {
		if endToEnd[m.Name] != m.Unit {
			t.Errorf("end-to-end %s %s: servebench has unit %q", m.Name, m.Unit, endToEnd[m.Name])
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in servebench", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v vs %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}
