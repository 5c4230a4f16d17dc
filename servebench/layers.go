package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// layerMetric is one per-layer metric with the end-to-end metric and
// workload it should move. A layer that does not run on a workload
// reports 0 there.
type layerMetric struct {
	name, unit, better string
	moves              string
}

// layerMetrics is the per-layer → end-to-end map, in output order.
var layerMetrics = []layerMetric{
	{"graph.parse_s", "s", "lower", "setup_s on all workloads; nearly all of it on mol-*"},
	{"graph.db_mb", "MB", "lower", "server_rss_mb on all workloads"},
	{"index.build_s", "s", "lower", "setup_s on pdbs-sharded; 0 on mol-*"},
	{"index.mb", "MB", "lower", "server_rss_mb on pdbs-sharded"},
	{"index.probe_ms_p50", "ms", "lower", "read_p50_ms on pdbs-sharded"},
	{"index.survivors_per_answer", "ratio", "lower", "read_qps on pdbs-sharded"},
	{"matching.filter_ms_p50", "ms", "lower", "read_qps and read_p50_ms on mol-unique"},
	{"matching.filter_share", "share", "lower", "read_qps and read_p50_ms on mol-unique"},
	{"matching.verify_ms_p50", "ms", "lower", "read_p99_ms on mol-unique and pdbs-sharded"},
	{"matching.si_tests_per_query", "count", "lower", "read_qps on mol-unique"},
	{"matching.candidates_per_answer", "ratio", "lower", "read_qps on mol-unique"},
	{"matching.steps_per_query", "count", "lower", "read_p99_ms on mol-unique"},
	{"core.query_ms_p50", "ms", "lower", "read_p50_ms on all workloads"},
	{"core.query_ms_p99", "ms", "lower", "read_p99_ms on all workloads"},
	{"core.cache.hit_ratio", "share", "higher", "read_qps and read_p50_ms on mol-hot-rw; 0 elsewhere"},
	{"core.cache.probe_ms_p50", "ms", "lower", "read_qps and read_p50_ms on mol-hot-rw; 0 elsewhere"},
	{"core.cache.pool_per_answer", "ratio", "lower", "read_qps and read_p50_ms on mol-hot-rw; 0 elsewhere"},
	{"core.cache.wipes", "count", "lower", "read_p99_ms on mol-hot-rw"},
	{"core.append_us_p50", "us", "lower", "write_p50_ms on mol-hot-rw"},
	{"telemetry.fingerprint_us_p50", "us", "lower", "read_p50_ms on mol-hot-rw"},
	{"cluster.partition_s", "s", "lower", "setup_s on pdbs-sharded"},
	{"cluster.shard_build_s_max", "s", "lower", "setup_s on pdbs-sharded (sum in index.build_s: shards build one after another)"},
	{"cluster.fanout_ms_p50", "ms", "lower", "read_p50_ms and read_p99_ms on pdbs-sharded"},
	{"cluster.shard_skew_p50", "ratio", "lower", "read_p50_ms and read_p99_ms on pdbs-sharded"},
	{"cluster.retries", "count", "lower", "failed_share and read_p99_ms on pdbs-sharded"},
	{"cluster.hedges", "count", "lower", "failed_share and read_p99_ms on pdbs-sharded"},
	{"sqserver.overhead_ms_p50", "ms", "lower", "read_p50_ms on all workloads"},
	{"sqserver.write_wait_ms_p50", "ms", "lower", "write_p50_ms on mol-hot-rw"},
	{"sqserver.shed_share", "share", "lower", "failed_share on all workloads"},
	{"sqserver.write_p50_ms", "ms", "lower", "the write path on mol-hot-rw (no other workload writes)"},
	{"sqserver.write_p90_ms", "ms", "lower", "the write path on mol-hot-rw (no other workload writes)"},
	{"sqserver.failed_share", "share", "lower", "attempted/failed of every workload"},
	{"loadgen.cpu_share", "share", "lower", "flags runs where the generator, not the server, limits read_qps"},
	{"trace.overhead_share", "share", "lower", "none: traced read_p50_ms ÷ untraced read_p50_ms − 1 on the same server"},
}

// layerValues collects the values and the base each one rests on.
type layerValues struct {
	v    map[string]float64
	base map[string]string
	errs []string
}

func (lv *layerValues) set(name string, v float64, base string, args ...any) {
	lv.v[name] = v
	lv.base[name] = fmt.Sprintf(base, args...)
}

// quantile sets a percentile metric, recording a refusal as an error.
func (lv *layerValues) quantile(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		lv.set(name, 0, "layer did not run")
		return
	}
	q, err := percentile(xs, p)
	if err != nil {
		lv.errs = append(lv.errs, name+": "+err.Error())
		return
	}
	lv.set(name, q, "n=%d", len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runTraced produces the per-layer metrics: one server for an untraced
// and a ?trace=1 HTTP phase of d/2 each (d each where the workload
// writes), then the in-process traced replay.
func runTraced(w workload, in *inputs, o *oracle, bin, runDir, spanDir string, seed int64, d time.Duration) (*result, error) {
	srv, _, err := startServer(bin, filepath.Join(runDir, "db.graph"), filepath.Join(runDir, "server.log"), w)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	log := newAppendLog()
	chk := newChecker(o, in, log)
	lg := newLoadGen(srv.base, w.conns, in, log)
	defer lg.close()
	warmFailed, warmWrong, warmFirst := checkWarm(lg.warmup(), chk)
	httpLen := d / 2
	if w.writeShare > 0 {
		httpLen = d // the write p90 needs 100 writes
	}
	c0, err := srv.counters(lg.client)
	if err != nil {
		return nil, err
	}
	plainPh := lg.run(httpLen, false)
	tracedPh := lg.run(httpLen, true)
	c1, err := srv.counters(lg.client)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	plain, traced := plainPh.check(chk), tracedPh.check(chk)

	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(spanDir, fmt.Sprintf("%s-%d.jsonl", w.name, seed))
	rp, err := runReplay(w, in, o, filepath.Join(runDir, "db.graph"), spanPath, d, 1100)
	if err != nil {
		return nil, err
	}

	lv := &layerValues{v: map[string]float64{}, base: map[string]string{}}
	replayLayers(lv, w, rp)
	httpLayers(lv, plain, traced, plainPh, c1["queries_shed_total"]-c0["queries_shed_total"],
		warmFailed, len(in.warm))

	fmt.Printf("http: untraced %d reads, ?trace=1 %d reads in %v each; replay: %d reads, %d appends; spans in %s\n",
		plain.readsInWindow, traced.readsInWindow, httpLen, len(rp.reads), len(rp.appends), spanPath)
	fmt.Println("span self time (name count total self):")
	for _, s := range rp.spans {
		fmt.Printf("  %-24s %7d %10.1fms %10.1fms\n", s.name, s.count, ms(s.total), ms(s.self))
	}
	metrics := map[string]metric{}
	for _, m := range layerMetrics {
		v, ok := lv.v[m.name]
		if !ok {
			continue
		}
		metrics[m.name] = metric{v, m.unit}
		fmt.Printf("%-32s %12.4f %-5s [%s] -> %s\n", m.name, v, m.unit, lv.base[m.name], m.moves)
	}
	if len(lv.errs) > 0 {
		return nil, fmt.Errorf("per-layer percentiles refused: %s", strings.Join(lv.errs, "; "))
	}
	attempted := plain.attempted + traced.attempted + len(in.warm) + rp.attempted
	failed := plain.failed + traced.failed + warmFailed + rp.failed
	for _, f := range []string{warmFirst, plain.firstFailure, traced.firstFailure, rp.firstFailure} {
		if f != "" {
			fmt.Printf("first failure: %s\n", f)
			break
		}
	}
	return &result{
		Correct:   warmWrong+plain.wrong+traced.wrong+rp.wrong == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// httpLayers derives the sqserver.*, loadgen.* and trace.* metrics from
// the two HTTP phases of one server.
func httpLayers(lv *layerValues, plain, traced phaseStats, plainPh *phase, shed int64, warmFailed, warm int) {
	// From the untraced phase: filter_us and verify_us come with every
	// response, and ?trace=1 bodies would add their own encoding cost.
	lv.quantile("sqserver.overhead_ms_p50", plain.overhead, 0.5)
	writes := append(append([]float64(nil), plain.writes...), traced.writes...)
	lv.quantile("sqserver.write_p50_ms", writes, 0.5)
	lv.quantile("sqserver.write_p90_ms", writes, 0.9)
	if wp50, ok := lv.v["sqserver.write_p50_ms"]; ok && len(writes) > 0 {
		app := lv.v["core.append_us_p50"] / 1000
		lv.set("sqserver.write_wait_ms_p50", wp50-app, "write p50 %.3fms - append p50 %.3fms", wp50, app)
	} else {
		lv.set("sqserver.write_wait_ms_p50", 0, "no writes")
	}
	reads := plain.readsInWindow + traced.readsInWindow
	lv.set("sqserver.shed_share", ratio(float64(shed), float64(reads)), "%d shed / %d reads", shed, reads)
	att := plain.attempted + traced.attempted + warm
	fl := plain.failed + traced.failed + warmFailed
	lv.set("sqserver.failed_share", ratio(float64(fl), float64(att)), "%d failed / %d ops", fl, att)
	lv.set("loadgen.cpu_share", plainPh.cpuShare, "untraced phase")
	p0, e0 := median(plain.reads)
	p1, e1 := median(traced.reads)
	if e0 != nil || e1 != nil {
		lv.errs = append(lv.errs, fmt.Sprintf("trace.overhead_share: %v %v", e0, e1))
		return
	}
	lv.set("trace.overhead_share", p1/p0-1, "read p50 %.3fms traced (n=%d) vs %.3fms untraced (n=%d)",
		p1, len(traced.reads), p0, len(plain.reads))
}

// replayLayers derives the graph, index, matching, core, telemetry and
// cluster metrics from the traced replay.
func replayLayers(lv *layerValues, w workload, rp *replay) {
	lv.set("graph.parse_s", rp.parseS, "one parse")
	lv.set("graph.db_mb", rp.dbMB, "Database.MemoryFootprint")
	var sumBuild, maxBuild time.Duration
	for _, b := range rp.shardBuilds {
		sumBuild += b
		maxBuild = max(maxBuild, b)
	}
	lv.set("index.build_s", sumBuild.Seconds(), "%d engine builds", len(rp.shardBuilds))
	lv.set("index.mb", rp.indexMB, "IndexMemory")

	n := len(rp.reads)
	var query, fp, probe, idx, filt, verify, fanout, skew []float64
	var sumFilter, sumQuery time.Duration
	var si, cand, ans, hitPool, hitAns, surv, idxAns, hits int
	var steps uint64
	for _, s := range rp.reads {
		query = append(query, ms(s.query))
		fp = append(fp, float64(s.fp)/float64(time.Microsecond))
		sumQuery += s.query
		si += s.siTests
		cand += s.candidates
		ans += s.answers
		steps += s.steps
		if s.index > 0 || s.survivors > 0 {
			idx = append(idx, ms(s.index))
			surv += s.survivors
			idxAns += s.answers
		}
		if s.hit {
			hits++
			hitPool += s.candidates
			hitAns += s.answers
		} else {
			filt = append(filt, ms(s.filter-s.index))
			verify = append(verify, ms(s.verify))
			sumFilter += s.filter - s.index
		}
		if w.cache > 0 {
			inner := s.verify
			if !s.hit {
				inner = sum(s.inner)
			}
			probe = append(probe, ms(s.query-inner))
		}
		if w.shards > 0 && len(s.inner) > 0 {
			slow := maxOf(s.inner)
			fanout = append(fanout, ms(s.query-slow))
			skew = append(skew, float64(slow)/(float64(sum(s.inner))/float64(len(s.inner))))
		}
	}
	lv.quantile("index.probe_ms_p50", idx, 0.5)
	lv.set("index.survivors_per_answer", ratio(float64(surv), float64(idxAns)), "%d survivors / %d answers", surv, idxAns)
	lv.quantile("matching.filter_ms_p50", filt, 0.5)
	lv.set("matching.filter_share", ratio(float64(sumFilter), float64(sumQuery)),
		"%.0fms filter / %.0fms core.query", ms(sumFilter), ms(sumQuery))
	lv.quantile("matching.verify_ms_p50", verify, 0.5)
	lv.set("matching.si_tests_per_query", ratio(float64(si), float64(n)), "%d tests / %d reads", si, n)
	lv.set("matching.candidates_per_answer", ratio(float64(cand), float64(ans)), "%d candidates / %d answers", cand, ans)
	lv.set("matching.steps_per_query", ratio(float64(steps), float64(n)), "%d steps / %d reads", steps, n)
	lv.quantile("core.query_ms_p50", query, 0.5)
	lv.quantile("core.query_ms_p99", query, 0.99)
	if w.cache > 0 {
		lv.set("core.cache.hit_ratio", ratio(float64(hits), float64(n)), "%d hits / %d reads", hits, n)
		lv.quantile("core.cache.probe_ms_p50", probe, 0.5)
		lv.set("core.cache.pool_per_answer", ratio(float64(hitPool), float64(hitAns)),
			"%d pool graphs / %d answers over %d hits", hitPool, hitAns, hits)
	} else {
		lv.set("core.cache.hit_ratio", 0, "no cache")
		lv.set("core.cache.probe_ms_p50", 0, "no cache")
		lv.set("core.cache.pool_per_answer", 0, "no cache")
	}
	lv.set("core.cache.wipes", float64(rp.wipes), "%d of %d appends", rp.wipes, len(rp.appends))
	apps := make([]float64, len(rp.appends))
	for i, a := range rp.appends {
		apps[i] = float64(a) / float64(time.Microsecond)
	}
	lv.quantile("core.append_us_p50", apps, 0.5)
	lv.quantile("telemetry.fingerprint_us_p50", fp, 0.5)
	if w.shards > 0 {
		lv.set("cluster.partition_s", rp.buildS-sumBuild.Seconds(), "Coordinator.Build %.3fs - shard builds %.3fs",
			rp.buildS, sumBuild.Seconds())
		lv.set("cluster.shard_build_s_max", maxBuild.Seconds(), "%d shards", len(rp.shardBuilds))
	} else {
		lv.set("cluster.partition_s", 0, "no shards")
		lv.set("cluster.shard_build_s_max", 0, "no shards")
	}
	lv.quantile("cluster.fanout_ms_p50", fanout, 0.5)
	lv.quantile("cluster.shard_skew_p50", skew, 0.5)
	lv.set("cluster.retries", float64(rp.retries), "Coordinator.Stats delta")
	lv.set("cluster.hedges", float64(rp.hedges), "Coordinator.Stats delta")
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func maxOf(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}
