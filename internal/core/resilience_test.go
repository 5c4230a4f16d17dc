package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"subgraphquery/internal/graph"
	"subgraphquery/internal/matching"
	"subgraphquery/internal/obs"
)

// poisonedCFQL returns a CFQL-configured vcFV whose filter panics on the
// given data graphs — the test double for a graph that trips a latent bug.
func poisonedCFQL(db *graph.Database, poison ...int) Engine {
	bad := map[*graph.Graph]bool{}
	for _, gid := range poison {
		bad[db.Graph(gid)] = true
	}
	return &engine{
		name: "CFQL-poisoned",
		filter: func(q, g *graph.Graph, opts matching.FilterOptions) *matching.Candidates {
			if bad[g] {
				panic("poisoned data graph")
			}
			return matching.CFLFilter(q, g, opts)
		},
		order: func(q, g *graph.Graph, cand *matching.Candidates, s *matching.Scratch) []graph.VertexID {
			return matching.GraphQLOrderScratch(q, cand, s)
		},
	}
}

// waitGoroutines retries until the goroutine count drops back to the
// baseline (worker exits are asynchronous after wg.Wait in the caller's
// frame has returned).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: have %d, want <= %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPanicIsolationSkipsGraph: a panic while processing one data graph is
// recovered, reported as a structured QueryError, and the query's answers
// over the remaining graphs are exact — one poisoned graph never takes
// down the query.
func TestPanicIsolationSkipsGraph(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 12, 9, 2)
	q := walkQuery(r, db.Graph(1), 3)
	const poisoned = 4

	eng := poisonedCFQL(db, poisoned)
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}

	live := matching.ScratchLive()
	panicsBefore := obs.Panics.Value()
	o := newCountingObserver()
	res := eng.Query(q, QueryOptions{Observer: o})

	if res.Err != nil {
		t.Fatalf("query-level error for a per-graph panic: %v", res.Err)
	}
	if res.Skipped != 1 || len(res.GraphErrors) != 1 {
		t.Fatalf("Skipped=%d GraphErrors=%d, want 1 and 1", res.Skipped, len(res.GraphErrors))
	}
	qe := res.GraphErrors[0]
	if qe.Kind != KindPanic || qe.GraphID != poisoned || qe.Engine != "CFQL-poisoned" {
		t.Errorf("QueryError = %+v, want panic on graph %d", qe, poisoned)
	}
	if qe.Stack == "" {
		t.Error("QueryError.Stack empty; want the panicking goroutine's stack")
	}
	if qe.Message == "" {
		t.Error("QueryError.Message empty")
	}

	// Answers over the non-poisoned graphs are exact.
	var want []int
	for _, gid := range trueAnswers(db, q) {
		if gid != poisoned {
			want = append(want, gid)
		}
	}
	if !equalInts(res.Answers, want) {
		t.Errorf("answers = %v, want %v (true answers minus poisoned graph)", res.Answers, want)
	}

	if got := obs.Panics.Value() - panicsBefore; got != 1 {
		t.Errorf("obs.Panics delta = %d, want 1", got)
	}
	if o.panics != 1 {
		t.Errorf("observer panics = %d, want 1", o.panics)
	}
	if got := matching.ScratchLive(); got != live {
		t.Errorf("scratch arenas leaked across panic: live %d, was %d", got, live)
	}
}

// TestPanicMidEnumerationReleasesScratch: a panic after filtering (in the
// ordering/enumeration half of the pipeline) must not strand the query's
// scratch arenas — the deferred ReleaseScratch still runs, and the pool
// stays usable for the next query. A graph that passed filtering stays a
// member of C(q) even though its enumeration panicked, sequentially and
// pooled alike.
func TestPanicMidEnumerationReleasesScratch(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	db := randomDB(r, 10, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)

	for _, workers := range []int{0, 4} {
		eng := &engine{
			name:   "CFQL-ordpanic",
			filter: matching.CFLFilter,
			order: func(q, g *graph.Graph, cand *matching.Candidates, s *matching.Scratch) []graph.VertexID {
				panic("mid-pipeline")
			},
			workers: workers,
		}
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}

		live := matching.ScratchLive()
		res := eng.Query(q, QueryOptions{})
		if got := matching.ScratchLive(); got != live {
			t.Fatalf("workers=%d: scratch arenas leaked: live %d, was %d", workers, got, live)
		}
		if res.Candidates == 0 || res.Skipped != res.Candidates {
			t.Errorf("workers=%d: Skipped=%d Candidates=%d, want every candidate skipped and graph 0 a candidate",
				workers, res.Skipped, res.Candidates)
		}
		if len(res.Answers) != 0 {
			t.Errorf("workers=%d: answers = %v, want none (every enumeration panicked)", workers, res.Answers)
		}

		// The pool is intact: a clean engine answers exactly afterwards.
		clean := NewCFQL()
		if err := clean.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		if got := clean.Query(q, QueryOptions{}); !equalInts(got.Answers, trueAnswers(db, q)) {
			t.Errorf("workers=%d: clean query after panics: answers %v, want %v", workers, got.Answers, trueAnswers(db, q))
		}
		if got := matching.ScratchLive(); got != live {
			t.Errorf("workers=%d: scratch arenas leaked after clean query: live %d, was %d", workers, got, live)
		}
	}
}

// TestGraphErrorsCapped: a database where every graph panics still yields
// a bounded Result — GraphErrors is capped, Skipped carries the true count.
func TestGraphErrorsCapped(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := maxGraphErrors + 7
	db := randomDB(r, n, 8, 2)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	eng := poisonedCFQL(db, all...)
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 2)
	res := eng.Query(q, QueryOptions{})
	if res.Skipped != n {
		t.Errorf("Skipped = %d, want %d", res.Skipped, n)
	}
	if len(res.GraphErrors) != maxGraphErrors {
		t.Errorf("GraphErrors = %d, want capped at %d", len(res.GraphErrors), maxGraphErrors)
	}
}

// TestMemoryBudgetSkipsGraph: a MemoryBudget too small for any candidate
// structure skips every graph with a KindBudget error instead of failing
// the query — and a budget large enough changes nothing.
func TestMemoryBudgetSkipsGraph(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	db := randomDB(r, 8, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)
	if q.NumVertices() < 2 {
		t.Skip("degenerate walk query")
	}

	for _, eng := range []Engine{NewCFQL(), NewVcGGSX()} {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatal(err)
		}
		res := eng.Query(q, QueryOptions{MemoryBudget: 1})
		if res.Err != nil {
			t.Fatalf("%s: query-level error: %v", eng.Name(), res.Err)
		}
		if res.Skipped == 0 {
			t.Errorf("%s: no graphs skipped under a 1-byte budget", eng.Name())
		}
		if len(res.Answers) != 0 {
			t.Errorf("%s: answers %v under a 1-byte budget, want none", eng.Name(), res.Answers)
		}
		for _, qe := range res.GraphErrors {
			if qe.Kind != KindBudget {
				t.Errorf("%s: GraphError kind %q, want %q", eng.Name(), qe.Kind, KindBudget)
			}
		}

		ample := eng.Query(q, QueryOptions{MemoryBudget: 1 << 30})
		if ample.Skipped != 0 {
			t.Errorf("%s: %d graphs skipped under a 1GiB budget", eng.Name(), ample.Skipped)
		}
		if !equalInts(ample.Answers, trueAnswers(db, q)) {
			t.Errorf("%s: answers %v under ample budget, want %v", eng.Name(), ample.Answers, trueAnswers(db, q))
		}
	}
}

// TestCancelStopsQuery: a closed Cancel channel halts every engine
// promptly with Cancelled and TimedOut set (the answer set is a lower
// bound either way), and parallel worker pools wind down without leaks.
func TestCancelStopsQuery(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := randomDB(r, 20, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)

	cancelled := make(chan struct{})
	close(cancelled)

	baseline := runtime.NumGoroutine()
	for name, eng := range allEngines() {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := eng.Query(q, QueryOptions{Cancel: cancelled, Workers: 3})
		if !res.Cancelled || !res.TimedOut {
			t.Errorf("%s: Cancelled=%v TimedOut=%v with a closed Cancel, want both true",
				name, res.Cancelled, res.TimedOut)
		}
	}
	waitGoroutines(t, baseline)
}

// TestCancelMidFlight: cancellation raised while a filter pass is running
// is observed inside the pass (not just between graphs) and propagates to
// the result.
func TestCancelMidFlight(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	db := randomDB(r, 6, 9, 2)
	q := walkQuery(r, db.Graph(0), 3)

	cancel := make(chan struct{})
	started := make(chan struct{}, db.Len()+1)
	eng := &engine{
		name: "CFQL-blocking",
		filter: func(q, g *graph.Graph, opts matching.FilterOptions) *matching.Candidates {
			started <- struct{}{}
			// Block like a pathological pass until the caller cancels;
			// then behave like a cooperative filter observing its Cancel.
			<-opts.Cancel
			cand := matching.CFLFilter(q, g, matching.FilterOptions{Scratch: opts.Scratch})
			cand.Aborted = true
			return cand
		},
		order: func(q, g *graph.Graph, cand *matching.Candidates, s *matching.Scratch) []graph.VertexID {
			return matching.GraphQLOrderScratch(q, cand, s)
		},
	}
	if err := eng.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}

	done := make(chan *Result, 1)
	go func() { done <- eng.Query(q, QueryOptions{Cancel: cancel}) }()
	<-started // the query is mid-filter on the first graph
	close(cancel)
	select {
	case res := <-done:
		if !res.Cancelled || !res.TimedOut {
			t.Errorf("Cancelled=%v TimedOut=%v after mid-flight cancel, want both true",
				res.Cancelled, res.TimedOut)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("query did not return after cancellation")
	}
}

// TestCancelParallelWorkersMidFlight drives the parallel CFQL and IvcFV
// worker pools with a Cancel raised while workers are mid-graph: the query
// returns promptly with Cancelled/TimedOut accounting and no goroutine
// survives the pool.
func TestCancelParallelWorkersMidFlight(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	// Large-ish graphs so the workers are actually mid-flight when the
	// cancel lands; correctness does not depend on the timing either way.
	db := randomDB(r, 40, 16, 2)
	q := walkQuery(r, db.Graph(0), 4)

	for name, eng := range map[string]Engine{
		"CFQL-parallel": NewParallelCFQL(3),
		"vcGrapes":      NewVcGrapes(),
	} {
		if err := eng.Build(db, BuildOptions{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		baseline := runtime.NumGoroutine()
		cancel := make(chan struct{})
		done := make(chan *Result, 1)
		go func() { done <- eng.Query(q, QueryOptions{Cancel: cancel, Workers: 3}) }()
		time.Sleep(500 * time.Microsecond)
		close(cancel)
		select {
		case res := <-done:
			// The query may have finished before the cancel landed; only a
			// cut-short run must carry the cancellation marks.
			if res.Cancelled && !res.TimedOut {
				t.Errorf("%s: Cancelled without TimedOut", name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: query did not return after cancellation", name)
		}
		waitGoroutines(t, baseline)
	}
}
