// Command servebench is the repository's serving benchmark. It builds
// nothing itself (run.sh builds sqserver and this program); it generates a
// workload's inputs (a fixed database and query pool, an op sequence drawn
// from --seed), computes reference answers with a different engine,
// starts sqserver as a separate process on the generated database, drives
// it over loopback HTTP with a closed loop of the workload's connections for
// --seconds, checks every answer, and prints the end-to-end metrics.
//
// With --trace 1 it instead reports per-layer metrics: an untraced and a
// ?trace=1 HTTP phase (server overhead, write latency, shedding, tracing
// overhead), then an in-process replay of the same op sequence through
// the engine stack sqserver builds, with spans recorded around every call
// into a layer and written to .bench_build/spans/.
//
// The last line of standard output is the JSON result. An answer that
// disagrees with the reference makes the run exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRuns is how many times a run starts the server to time set-up;
// the median is reported and the last start serves the load.
const setupRuns = 3

// endToEnd are the metrics a run with --trace 0 reports, with their units.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"read_qps":      "1/s",
	"read_p50_ms":   "ms",
	"read_p99_ms":   "ms",
	"server_rss_mb": "MB",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "timed seconds of load")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from the traced runs")
	serverBin := flag.String("server", "", "sqserver binary")
	work := flag.String("work", ".bench_build", "directory for inputs, logs, caches and spans")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *serverBin == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("need --server, --seconds >= 1 and --trace 0|1")
	}
	d := time.Duration(*seconds) * time.Second

	runDir := filepath.Join(*work, "run", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	in, err := makeInputs(w, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed=%d seconds=%d trace=%d server: -engine %s -cache %d -shards %d -budget 5s; oracle %s\n",
		w.name, *seed, *seconds, *trace, w.engine, w.cache, w.shards, w.oracle)
	dbPath := filepath.Join(runDir, "db.graph")
	if err := os.WriteFile(dbPath, in.dbText, 0o644); err != nil {
		return err
	}
	t0 := time.Now()
	o, err := buildOracle(w, in, filepath.Join(*work, "oracle"))
	if err != nil {
		return err
	}
	fmt.Printf("oracle %s: %d reference answer sets in %.1fs\n", w.oracle, len(o.warm)+len(o.pool), time.Since(t0).Seconds())
	in.plan(w, *seed, o)
	fmt.Println(in.describe())
	// Only the query and append graphs are needed from here on: release
	// the generated database so the client's heap stays small.
	in.db, in.dbText = nil, nil
	runtime.GC()
	debug.FreeOSMemory()

	var res *result
	if *trace == 1 {
		res, err = runTraced(w, in, o, *serverBin, runDir, filepath.Join(*work, "spans"), *seed, d)
	} else {
		res, err = runPlain(w, in, o, *serverBin, runDir, d)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("answers disagreed with the %s reference", w.oracle)
	}
	return os.RemoveAll(runDir)
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(w workload, in *inputs, o *oracle, bin, runDir string, d time.Duration) (*result, error) {
	var setups []float64
	var srv *serverProc
	defer func() { srv.stop() }()
	for k := 0; k < setupRuns; k++ {
		p, took, err := startServer(bin, filepath.Join(runDir, "db.graph"), filepath.Join(runDir, "server.log"), w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if k < setupRuns-1 {
			if err := p.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = p
	}
	log := newAppendLog()
	chk := newChecker(o, in, log)
	lg := newLoadGen(srv.base, w.conns, in, log)
	defer lg.close()
	warmFailed, warmWrong, warmFirst := checkWarm(lg.warmup(), chk)
	ph := lg.run(d, false)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	st := ph.check(chk)
	attempted, failed := st.attempted+len(in.warm), st.failed+warmFailed
	first := warmFirst
	if first == "" {
		first = st.firstFailure
	}

	fmt.Printf("setup_s runs: %v\n", setups)
	fmt.Printf("load: %d conns closed loop, %d ops sent, %d reads and %d writes completed in the %v window, sequence laps=%d, loadgen cpu_share=%.3f\n",
		lg.conns, len(ph.ops), st.readsInWindow, len(st.writes), d, ph.laps, ph.cpuShare)
	p50, err := median(st.reads)
	if err != nil {
		return nil, fmt.Errorf("read_p50_ms: %w", err)
	}
	p99, err := percentile(st.reads, 0.99)
	if err != nil {
		return nil, fmt.Errorf("read_p99_ms: %w", err)
	}
	fmt.Printf("read latency over n=%d: p50=%.3fms p99=%.3fms; deciles", len(st.reads), p50, p99)
	for k := 1; k <= 9; k++ {
		v, _ := percentile(st.reads, float64(k)/10) // refused only below 20 samples
		fmt.Printf(" %.2f", v)
	}
	fmt.Println()
	if w.writeShare > 0 {
		wp50, e1 := median(st.writes)
		wp90, e2 := percentile(st.writes, 0.9)
		if e1 == nil && e2 == nil {
			fmt.Printf("write latency over n=%d: p50=%.3fms p90=%.3fms\n", len(st.writes), wp50, wp90)
		} else {
			fmt.Printf("write latency over n=%d: too few writes for p90 (the traced run reports it)\n", len(st.writes))
		}
	}
	fmt.Printf("failed_share=%.4f (%d of %d ops, warm-up included)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	if first != "" {
		fmt.Printf("first failure: %s\n", first)
	}
	return &result{
		Correct:   warmWrong+st.wrong == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":       {plainMedian(setups), endToEnd["setup_s"]},
			"read_qps":      {float64(st.readsInWindow) / d.Seconds(), endToEnd["read_qps"]},
			"read_p50_ms":   {p50, endToEnd["read_p50_ms"]},
			"read_p99_ms":   {p99, endToEnd["read_p99_ms"]},
			"server_rss_mb": {rss, endToEnd["server_rss_mb"]},
		},
	}, nil
}
