package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	sq "subgraphquery"
	"subgraphquery/internal/bench"
	"subgraphquery/internal/core"
)

// oracle holds reference answer sets computed in-process, before any
// timing, by an engine other than the one under test.
type oracle struct {
	warm [][]int // per warm-up query
	pool [][]int // per pool query
	base int     // graphs in the generated database; larger ids are appends
}

// buildOracle answers every warm-up and pool query with w.oracle, two
// workers at a time. Results are cached under dir by the digest of the
// database and queries, which every seed of a workload shares.
func buildOracle(w workload, in *inputs, dir string) (*oracle, error) {
	o := &oracle{base: in.db.Len()}
	path := filepath.Join(dir, fmt.Sprintf("oracle-%s-%s.bin", w.name, in.dataDigest))
	all, err := loadAnswers(path, len(in.warm)+len(in.pool))
	if err != nil {
		eng, err := bench.NewEngine(w.oracle)
		if err != nil {
			return nil, err
		}
		if err := eng.Build(in.db, core.BuildOptions{}); err != nil {
			return nil, fmt.Errorf("building oracle %s: %w", w.oracle, err)
		}
		qs := append(append([]query(nil), in.warm...), in.pool...)
		if all, err = answerAll(eng, qs, 2); err != nil {
			return nil, err
		}
		if err := saveAnswers(path, all); err != nil {
			return nil, err
		}
	}
	o.warm, o.pool = all[:len(in.warm)], all[len(in.warm):]
	return o, nil
}

// answerAll runs every query through eng on the given number of workers.
func answerAll(eng core.Engine, qs []query, workers int) ([][]int, error) {
	out := make([][]int, len(qs))
	errs := make([]error, len(qs))
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res := eng.Query(qs[i].g, core.QueryOptions{})
				if res.Err != nil || res.TimedOut || res.Skipped > 0 {
					errs[i] = fmt.Errorf("oracle query %d (%s) incomplete", i, qs[i].set)
					continue
				}
				out[i] = res.Answers
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

// saveAnswers writes answer sets as delta-encoded uvarints, written to a
// temporary name first so a cut-short write is never read back.
func saveAnswers(path string, all [][]int) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var b [binary.MaxVarintLen64]byte
	put := func(x int) { bw.Write(b[:binary.PutUvarint(b[:], uint64(x))]) }
	put(len(all))
	for _, ans := range all {
		put(len(ans))
		prev := 0
		for _, id := range ans {
			put(id - prev)
			prev = id
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadAnswers reads a cache written by saveAnswers holding want sets.
func loadAnswers(path string, want int) ([][]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	get := func() int {
		x, e := binary.ReadUvarint(br)
		if e != nil && err == nil {
			err = e
		}
		return int(x)
	}
	n := get()
	if err != nil {
		return nil, fmt.Errorf("oracle cache %s: %w", path, err)
	}
	if n != want {
		return nil, fmt.Errorf("oracle cache %s: %d sets, want %d", path, n, want)
	}
	all := make([][]int, n)
	for i := range all {
		all[i] = make([]int, get())
		prev := 0
		for j := range all[i] {
			prev += get()
			all[i][j] = prev
		}
		if err != nil {
			return nil, err
		}
	}
	if _, e := br.ReadByte(); e != io.EOF {
		return nil, fmt.Errorf("oracle cache %s: trailing bytes", path)
	}
	return all, nil
}

// appendRec is one append as the client saw it.
type appendRec struct {
	fresh       int       // index into inputs.fresh
	id          int       // id the server assigned
	sent, acked time.Time // request sent, response fully read
}

// appendLog records acknowledged appends; reads are checked against it.
type appendLog struct {
	mu   sync.Mutex
	recs map[int]appendRec // by assigned id
}

func newAppendLog() *appendLog { return &appendLog{recs: map[int]appendRec{}} }

func (l *appendLog) add(r appendRec) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.recs[r.id]; dup {
		return fmt.Errorf("append id %d assigned twice", r.id)
	}
	l.recs[r.id] = r
	return nil
}

// checker validates read answers against the oracle and the append log.
// Containment of a query in an appended graph is memoised per (query,
// fresh graph) pair.
type checker struct {
	o     *oracle
	in    *inputs
	log   *appendLog
	memo  map[[2]int]bool
	memMu sync.Mutex
}

func newChecker(o *oracle, in *inputs, log *appendLog) *checker {
	return &checker{o: o, in: in, log: log, memo: map[[2]int]bool{}}
}

func (c *checker) contains(q int, fresh int) bool {
	k := [2]int{q, fresh}
	c.memMu.Lock()
	v, ok := c.memo[k]
	c.memMu.Unlock()
	if !ok {
		v = sq.IsSubgraph(c.in.pool[q].g, c.in.fresh[fresh])
		c.memMu.Lock()
		c.memo[k] = v
		c.memMu.Unlock()
	}
	return v
}

// checkRead validates one read of pool query q (or warm-up query q when
// warm) sent at sent and completed at done. The base-database part must
// equal the reference exactly. Every append acknowledged before sent must
// appear iff it contains the query; an append whose request overlapped
// the read may appear only if it contains the query; no other id may
// appear.
func (c *checker) checkRead(q int, warm bool, got []int, sent, done time.Time) error {
	ref := c.o.pool
	if warm {
		ref = c.o.warm
	}
	want := ref[q]
	if !slices.IsSorted(got) {
		return fmt.Errorf("%d answers not ascending", len(got))
	}
	cut, _ := slices.BinarySearch(got, c.o.base)
	if !slices.Equal(got[:cut], want) {
		return fmt.Errorf("answer set differs from the reference: got %d database ids, want %d", cut, len(want))
	}
	appended := got[cut:]
	if len(appended) == 0 && len(c.in.fresh) == 0 {
		return nil
	}
	if warm {
		if len(appended) > 0 {
			return fmt.Errorf("warm-up read returned appended id %d", appended[0])
		}
		return nil
	}
	c.log.mu.Lock()
	defer c.log.mu.Unlock()
	present := map[int]bool{}
	for _, id := range appended {
		r, ok := c.log.recs[id]
		switch {
		case !ok:
			return fmt.Errorf("answer %d is neither in the database nor an acknowledged append", id)
		case !r.sent.Before(done):
			return fmt.Errorf("answer %d was appended after the read returned", id)
		case !c.contains(q, r.fresh):
			return fmt.Errorf("appended graph %d does not contain the query", id)
		}
		present[id] = true
	}
	for id, r := range c.log.recs {
		if r.acked.Before(sent) && !present[id] && c.contains(q, r.fresh) {
			return fmt.Errorf("appended graph %d, acknowledged before the read, contains the query but is missing", id)
		}
	}
	return nil
}
