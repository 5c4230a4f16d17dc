package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// queryReply is the part of a /query response the benchmark reads.
type queryReply struct {
	Answers   []int `json:"answers"`
	FilterUS  int64 `json:"filter_us"`
	VerifyUS  int64 `json:"verify_us"`
	TimedOut  bool  `json:"timed_out"`
	Cancelled bool  `json:"cancelled"`
	Degraded  bool  `json:"degraded"`
	Skipped   int   `json:"skipped"`
}

// classifyRead decodes a /query response and reports why it counts as a
// failed op, or "" when the server answered in full. Only a 200 with a
// complete answer set passes: shed (429), timed-out, cancelled, degraded
// and partially skipped answers are all failures.
func classifyRead(status int, body []byte) (queryReply, string) {
	var r queryReply
	if status != http.StatusOK {
		return r, fmt.Sprintf("status %d", status)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, "undecodable body: " + err.Error()
	}
	switch {
	case r.TimedOut:
		return r, "timed_out"
	case r.Cancelled:
		return r, "cancelled"
	case r.Degraded:
		return r, "degraded"
	case r.Skipped > 0:
		return r, fmt.Sprintf("skipped %d graphs", r.Skipped)
	}
	return r, ""
}

// opRec is one completed op as the client saw it.
type opRec struct {
	write      bool
	q          int // pool (or warm-up) index for reads
	sent, done time.Time
	serverUS   int64 // filter + verify time the server reported
	answers    []int
	fail       string
}

func (r *opRec) ms() float64 { return float64(r.done.Sub(r.sent)) / float64(time.Millisecond) }

// loadGen drives one server over conns connections. Each connection is a
// closed loop: it sends its next request when the previous one returns.
type loadGen struct {
	client *http.Client
	base   string
	conns  int
	in     *inputs
	log    *appendLog
	next   atomic.Int64 // next op index, shared by the connections
}

func newLoadGen(base string, conns int, in *inputs, log *appendLog) *loadGen {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loadGen{
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base:   base, conns: conns, in: in, log: log,
	}
}

func (g *loadGen) close() { g.client.CloseIdleConnections() }

func (g *loadGen) post(path string, body []byte) (int, []byte, time.Time, time.Time, error) {
	sent := time.Now()
	resp, err := g.client.Post(g.base+path, "text/plain", bytes.NewReader(body))
	if err != nil {
		return 0, nil, sent, time.Now(), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, b, sent, time.Now(), err
}

func (g *loadGen) read(q int, warm bool, trace bool) opRec {
	body := g.in.pool
	if warm {
		body = g.in.warm
	}
	path := "/query"
	if trace {
		path += "?trace=1"
	}
	status, b, sent, done, err := g.post(path, body[q].text)
	rec := opRec{q: q, sent: sent, done: done}
	if err != nil {
		rec.fail = "transport: " + err.Error()
		return rec
	}
	reply, why := classifyRead(status, b)
	rec.fail, rec.answers, rec.serverUS = why, reply.Answers, reply.FilterUS+reply.VerifyUS
	return rec
}

func (g *loadGen) write(fresh int) opRec {
	status, b, sent, done, err := g.post("/graphs", g.in.freshB[fresh])
	rec := opRec{write: true, sent: sent, done: done}
	switch {
	case err != nil:
		rec.fail = "transport: " + err.Error()
	case status != http.StatusOK:
		rec.fail = fmt.Sprintf("status %d", status)
	default:
		var r struct {
			ID *int `json:"id"`
		}
		if err := json.Unmarshal(b, &r); err != nil || r.ID == nil {
			rec.fail = "undecodable append reply"
		} else if err := g.log.add(appendRec{fresh: fresh, id: *r.ID, sent: sent, acked: done}); err != nil {
			rec.fail = err.Error()
		}
	}
	return rec
}

// warmup sends every warm-up query once over the connections, untimed.
func (g *loadGen) warmup() []opRec {
	var mu sync.Mutex
	var out []opRec
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(g.in.warm) {
					return
				}
				r := g.read(i, true, false)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// phase is one timed closed-loop window.
type phase struct {
	start, end time.Time
	ops        []opRec // every op sent, including those that finished after end
	laps       int     // how many times the op sequence wrapped
	cpuShare   float64 // load-generator CPU time ÷ wall time
}

// run drives the op sequence from the shared cursor for d.
func (g *loadGen) run(d time.Duration, trace bool) *phase {
	var mu sync.Mutex
	p := &phase{}
	cpu0 := cpuTime()
	p.start = time.Now()
	p.end = p.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(p.end) {
				i := int(g.next.Add(1) - 1)
				o := g.in.ops[i%len(g.in.ops)]
				var r opRec
				if o.write {
					r = g.write(o.idx % len(g.in.fresh))
				} else {
					r = g.read(o.idx, false, trace)
				}
				mu.Lock()
				p.ops = append(p.ops, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(p.start)
	p.cpuShare = float64(cpuTime()-cpu0) / float64(wall)
	p.laps = int(g.next.Load()-1) / len(g.in.ops)
	return p
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phaseStats summarises the ops of a phase that completed inside its
// window.
type phaseStats struct {
	reads, writes []float64 // latencies (ms) of successful ops in the window
	overhead      []float64 // read latency minus server filter+verify (ms)
	readsInWindow int
	attempted     int
	failed        int
	wrong         int // failed the oracle check
	firstFailure  string
}

// check validates every op of the phase (answers included) and collects
// the in-window latencies.
func (p *phase) check(c *checker) phaseStats {
	var s phaseStats
	for i := range p.ops {
		r := &p.ops[i]
		s.attempted++
		if r.fail == "" && !r.write {
			if err := c.checkRead(r.q, false, r.answers, r.sent, r.done); err != nil {
				r.fail = "oracle: " + err.Error()
				s.wrong++
			}
		}
		if r.fail != "" {
			s.failed++
			if s.firstFailure == "" {
				s.firstFailure = r.fail
			}
			continue
		}
		if r.done.After(p.end) {
			continue
		}
		if r.write {
			s.writes = append(s.writes, r.ms())
			continue
		}
		s.readsInWindow++
		s.reads = append(s.reads, r.ms())
		s.overhead = append(s.overhead, r.ms()-float64(r.serverUS)/1000)
	}
	return s
}

// checkWarm validates the warm-up answers.
func checkWarm(ops []opRec, c *checker) (failed, wrong int, first string) {
	for _, r := range ops {
		fail := r.fail
		if fail == "" {
			if err := c.checkRead(r.q, true, r.answers, r.sent, r.done); err != nil {
				fail = "oracle: " + err.Error()
				wrong++
			}
		}
		if fail != "" {
			failed++
			if first == "" {
				first = "warm-up: " + fail
			}
		}
	}
	return failed, wrong, first
}
