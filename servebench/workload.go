package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
	"subgraphquery/internal/telemetry"
)

// workload is one traffic mix against one server configuration. The
// server only ever sees the generated database file and request bodies;
// every input derives from the benchmark's --seed.
type workload struct {
	name    string
	why     string
	dataset gen.RealDataset
	scale   float64
	engine  string // sqserver -engine
	cache   int    // sqserver -cache (0 disables the result cache)
	shards  int    // sqserver -shards (0 = one engine)
	oracle  string // reference engine, never the one under test
	conns   int    // the load generator's closed-loop connections
	perSet  int    // distinct read queries per query set
	// writeShare is the fraction of ops that append a fresh graph
	// (Zipf workloads only).
	writeShare float64
	// zipf > 0 draws reads Zipf(zipf) from the pool; 0 sends every pool
	// query once, in a seeded stratified order (makeOps).
	zipf float64
}

var workloads = []workload{
	{
		name:    "mol-unique",
		why:     "distinct queries, no index, cache or shards: vcFV filtering and verification do most of the work",
		dataset: gen.AIDS, scale: 0.25,
		engine: "CFQL", cache: 0, oracle: "vcGrapes", conns: 2,
		perSet: 400,
	},
	{
		name:    "mol-hot-rw",
		why:     "Zipf-repeated shapes exercise the result cache while 5% appends wipe it and wait on the server lock",
		dataset: gen.AIDS, scale: 0.25,
		engine: "CFQL", cache: 64, oracle: "vcGrapes", conns: 2,
		perSet: 25, writeShare: 0.05, zipf: 1.1,
	},
	{
		name:    "pdbs-sharded",
		why:     "large chain graphs where the Grapes index prunes most graphs and every read fans out over two shards",
		dataset: gen.PDBS, scale: 1,
		engine: "vcGrapes", shards: 2, cache: 0, oracle: "CFQL",
		// One connection: each read already fans out over both CPUs, and
		// with two, a fast read's latency depended on which slow read it
		// overlapped (read_p50_ms spread 17.7% over five seeds, 6.0% with
		// one connection).
		conns:  1,
		perSet: 450,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// querySets are the twelve query sets every workload draws from: the
// paper's sparse (S) and dense (D) tracks plus the induced (I) track, at
// 4 to 32 edges.
var querySets = func() []gen.QuerySetConfig {
	var out []gen.QuerySetConfig
	for _, e := range []int{4, 8, 16, 32} {
		for _, m := range []gen.QueryMethod{gen.QueryRandomWalk, gen.QueryBFS, gen.QueryInduced} {
			out = append(out, gen.QuerySetConfig{Edges: e, Method: m})
		}
	}
	return out
}()

const (
	// warmPerSet queries of each set are sent, untimed, before the run.
	warmPerSet = 2
	// maxBatches bounds the draws spent on finding distinct shapes for a
	// set; a set with fewer distinct shapes keeps what it found.
	maxBatches = 40
	// opsLen is the length of a Zipf op sequence; runs that outlast it
	// wrap around.
	opsLen = 100000
	// freshScale sizes the pool of graphs that writes append (2,000
	// AIDS-like graphs at 0.05).
	freshScale = 0.05
)

// query is one read body with its shape hash.
type query struct {
	set  string
	g    *graph.Graph
	text []byte
	fp   telemetry.Fingerprint
}

// op is one step of the load: a read of pool[idx], or an append of
// fresh[idx].
type op struct {
	write bool
	idx   int
}

// inputs is everything one run sends. The database and the query pool
// are a fixed dataset per workload (dataSeed), as the paper's real
// datasets and query sets are fixed; --seed draws the op sequence and the
// graphs that writes append.
type inputs struct {
	db     *graph.Database
	dbText []byte
	pool   []query
	warm   []query
	fresh  []*graph.Graph
	freshB [][]byte
	ops    []op
	// dataDigest covers the database and the queries (the oracle's cache
	// key); digest covers every byte and op the run can send.
	dataDigest, digest string
}

// dataSeed generates every workload's database and query pool. With both
// drawn from the run seed, mol-hot-rw read_qps spread 48% across five
// seeds against 6% across repeat runs of one seed (15 s runs, two vCPUs):
// a few hot shapes take most reads, and their cost depends on which
// shapes the pool holds.
const dataSeed = 1

// seedFor derives an independent stream seed for one purpose.
func seedFor(seed int64, purpose, i, j int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(purpose)<<48 ^ uint64(i)<<24 ^ uint64(j)
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 29
	return int64(x >> 1)
}

func graphText(g *graph.Graph) []byte {
	var b bytes.Buffer
	if err := graph.WriteGraph(&b, 0, g); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return b.Bytes()
}

// makeInputs generates the run's database, query pool, warm-up set and
// write graphs; plan adds the op sequence.
func makeInputs(w workload, seed int64) (*inputs, error) {
	db, err := gen.Real(w.dataset, w.scale, seedFor(dataSeed, 1, 0, 0))
	if err != nil {
		return nil, err
	}
	in := &inputs{db: db}
	var buf bytes.Buffer
	if err := graph.WriteDatabase(&buf, db); err != nil {
		return nil, err
	}
	in.dbText = buf.Bytes()
	if in.pool, in.warm, err = queryPools(db, dataSeed, w.perSet); err != nil {
		return nil, err
	}
	in.dataDigest = in.hash()
	if w.writeShare > 0 {
		fdb, err := gen.Real(gen.AIDS, freshScale, seedFor(seed, 3, 0, 0))
		if err != nil {
			return nil, err
		}
		in.fresh = fdb.Graphs()
		for _, g := range in.fresh {
			in.freshB = append(in.freshB, graphText(g))
		}
	}
	return in, nil
}

// plan builds the op sequence, which for Zipf workloads depends on the
// reference answer counts, and digests everything the run can send.
func (in *inputs) plan(w workload, seed int64, o *oracle) {
	in.ops = makeOps(w, seed, in.pool, o.pool)
	in.digest = in.hash()
}

// queryPools draws, per query set, perSet+warmPerSet queries with
// fingerprints distinct across all sets; the first warmPerSet of each set
// form the warm-up set.
func queryPools(db *graph.Database, seed int64, perSet int) (pool, warm []query, err error) {
	seen := map[telemetry.Fingerprint]bool{}
	need := perSet + warmPerSet
	for si, cfg := range querySets {
		var got []query
		for b := 0; b < maxBatches && len(got) < need; b++ {
			cfg.Count = need
			cfg.Seed = seedFor(seed, 2, si, b)
			qs, err := gen.QuerySet(db, cfg)
			if err != nil {
				return nil, nil, err
			}
			for _, q := range qs {
				fp := telemetry.Compute(q)
				if seen[fp] || len(got) == need {
					continue
				}
				seen[fp] = true
				got = append(got, query{set: cfg.Name(), g: q, text: graphText(q), fp: fp})
			}
		}
		if len(got) <= warmPerSet {
			return nil, nil, fmt.Errorf("query set %s: only %d distinct shapes", cfg.Name(), len(got))
		}
		warm = append(warm, got[:warmPerSet]...)
		pool = append(pool, got[warmPerSet:]...)
	}
	return pool, warm, nil
}

// rankOrder lists pool indices in rounds where the sets take turns; each
// set's shapes, sorted by reference answer count, come in quantileOrder
// rotated by shift(). Every prefix then covers the sets and their
// answer-count range evenly.
func rankOrder(pool []query, answers [][]int, shift func() float64) []int {
	bySet := map[string][]int{}
	for i, q := range pool {
		bySet[q.set] = append(bySet[q.set], i)
	}
	pos := map[string][]int{}
	for _, cfg := range querySets {
		ids := bySet[cfg.Name()]
		sort.SliceStable(ids, func(a, b int) bool { return len(answers[ids[a]]) < len(answers[ids[b]]) })
		pos[cfg.Name()] = quantileOrder(len(ids), shift())
	}
	var order []int
	for j := 0; len(order) < len(pool); j++ {
		for _, cfg := range querySets {
			if ids := bySet[cfg.Name()]; j < len(ids) {
				order = append(order, ids[pos[cfg.Name()][j]])
			}
		}
	}
	return order
}

// quantileOrder returns positions 0..n-1 in van der Corput order rotated
// by shift in [0, 1) — with shift 0.5: n/2, 0, 3n/4, n/4, 5n/8, ... — so
// any prefix covers the range evenly.
func quantileOrder(n int, shift float64) []int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	out := make([]int, 0, n)
	used := make([]bool, n)
	for j := 0; j < 1<<bits; j++ {
		rev := 0
		for b := 0; b < bits; b++ {
			rev |= (j >> b & 1) << (bits - 1 - b)
		}
		f := float64(rev)/float64(int(1)<<bits) + shift
		if f >= 1 {
			f--
		}
		if p := int(f * float64(n)); !used[p] {
			used[p] = true
			out = append(out, p)
		}
	}
	for p, u := range used {
		if !u {
			out = append(out, p)
		}
	}
	return out
}

// makeOps returns the op sequence. Distinct-query workloads send the pool
// once in rankOrder: a run sends a prefix whose length depends on speed,
// and this keeps that prefix's mix of sets and answer counts the same on
// every seed (a plain shuffle let the 70% prefix a 25 s run sends differ
// in mix between seeds). The seed rotates each set's quantile order and
// shuffles the turns within each round. Zipf workloads read zipfReads
// with rankOrder (each set's median first, so the twelve hottest shapes
// are the sets' medians) as rank, and every (1/writeShare)-th op is an
// append. Each append wipes the result cache, so the fixed cadence keeps
// the wipe rate the same on every seed.
func makeOps(w workload, seed int64, pool []query, answers [][]int) []op {
	r := rand.New(rand.NewSource(seedFor(seed, 4, 0, 0)))
	if w.zipf == 0 {
		order := rankOrder(pool, answers, r.Float64)
		for start := 0; start < len(order); start += len(querySets) {
			round := order[start:min(start+len(querySets), len(order))]
			r.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		}
		ops := make([]op, len(order))
		for i, p := range order {
			ops[i] = op{idx: p}
		}
		return ops
	}
	order := rankOrder(pool, answers, func() float64 { return 0.5 })
	period := int(math.Round(1 / w.writeShare))
	reads := zipfReads(r, w.zipf, len(order), opsLen)
	ops := make([]op, opsLen)
	for i := range ops {
		if i%period == period-1 {
			ops[i] = op{write: true, idx: i / period}
			continue
		}
		ops[i] = op{idx: order[reads[i-i/period]]}
	}
	return ops
}

// zipfBlock is how many reads of a Zipf stream hold each rank's quota.
const zipfBlock = 100

// zipfReads returns n ranks in [0, ranks) with P(k) ∝ (1+k)^-s, the
// distribution of rand.NewZipf(r, s, 1, ranks-1). Rather than drawing
// them independently, every block of zipfBlock reads holds each rank's
// quota, rounded with a seeded offset per rank, in a seeded order: any
// prefix a run reaches then holds every rank about as often as expected,
// where independent draws made the count of rare, expensive misses (and
// so read_p99_ms) vary between seeds.
func zipfReads(r *rand.Rand, s float64, ranks, n int) []int {
	p := make([]float64, ranks)
	var total float64
	for k := range p {
		p[k] = math.Pow(float64(1+k), -s)
		total += p[k]
	}
	off := make([]float64, ranks)
	for k := range off {
		p[k] /= total
		off[k] = r.Float64()
	}
	// sent(k, m) is how many of the first m expected reads are rank k.
	sent := func(k, m int) int { return int(math.Floor(float64(m)*p[k] + off[k])) }
	out := make([]int, 0, n+ranks)
	for m := 0; len(out) < n; m += zipfBlock {
		start := len(out)
		for k := range p {
			for j := sent(k, m); j < sent(k, m+zipfBlock); j++ {
				out = append(out, k)
			}
		}
		block := out[start:]
		r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
	}
	return out[:n]
}

// hash digests every byte and op the run can send, so two runs can show
// they measured the same thing.
func (in *inputs) hash() string {
	h := sha256.New()
	h.Write(in.dbText)
	for _, qs := range [][]query{in.warm, in.pool} {
		for _, q := range qs {
			h.Write(q.text)
		}
	}
	for _, b := range in.freshB {
		h.Write(b)
	}
	var rec [9]byte
	for _, o := range in.ops {
		rec[0] = 0
		if o.write {
			rec[0] = 1
		}
		binary.LittleEndian.PutUint64(rec[1:], uint64(o.idx))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// describe prints the digest and the input statistics.
func (in *inputs) describe() string {
	var v, e int
	for _, g := range in.db.Graphs() {
		v += g.NumVertices()
		e += g.NumEdges()
	}
	perSet := map[string]int{}
	for _, q := range in.pool {
		perSet[q.set]++
	}
	var sets []string
	for _, cfg := range querySets {
		sets = append(sets, fmt.Sprintf("%s=%d", cfg.Name(), perSet[cfg.Name()]))
	}
	writes := 0
	for _, o := range in.ops {
		if o.write {
			writes++
		}
	}
	return fmt.Sprintf("inputs digest=%s data_digest=%s graphs=%d vertices=%d edges=%d db_bytes=%d pool=%d warm=%d ops=%d op_writes=%d fresh=%d sets: %s",
		in.digest, in.dataDigest, in.db.Len(), v, e, len(in.dbText), len(in.pool), len(in.warm), len(in.ops), writes, len(in.fresh),
		strings.Join(sets, " "))
}
