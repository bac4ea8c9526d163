package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"optimus/internal/blas"
	"optimus/internal/cost"
	"optimus/internal/kmeans"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/topk"
)

// Layer probes: small timed calls into one layer's public functions, on the
// workload's own shapes. Each returns plain numbers; the traced runs file
// them under the per-layer metric names.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// bestOf runs fn reps times and returns the fastest wall-clock — the usual
// estimator for a short deterministic kernel on a shared box.
func bestOf(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// bmmSlabRows is the user-block height BMM multiplies at once for this item
// count (core.DefaultBMMConfig's 64 MiB score slab), capped at the user count.
func bmmSlabRows(users, items int) int {
	rows := (64 << 20) / (8 * items)
	if rows < 1 {
		rows = 1
	}
	if rows > users {
		rows = users
	}
	return rows
}

type gemmProbe struct {
	gflops, flopsPerByte, gbytesPerS float64
	wall                             time.Duration
	m, n, f                          int
}

// probeGemm times blas.GemmNTParallel on the workload's user-block × items ×
// f shape. FLOPs come from cost.GemmFLOPs; bytes are computed from the matrix
// sizes (each operand read once, the scores written once), not measured.
func probeGemm(users, items *mat.Matrix, threads int) gemmProbe {
	m, n, f := bmmSlabRows(users.Rows(), items.Rows()), items.Rows(), items.Cols()
	a := users.RowSlice(0, m)
	c := mat.New(m, n)
	wall := bestOf(3, func() { blas.GemmNTParallel(a, items, c, threads) })
	sink += c.At(0, 0)
	flops := cost.GemmFLOPs(m, n, f)
	bytes := 8 * float64(m*f+n*f+m*n)
	p := gemmProbe{wall: wall, m: m, n: n, f: f, flopsPerByte: flops / bytes}
	p.gflops = flops / wall.Seconds() / 1e9
	p.gbytesPerS = p.gflops / p.flopsPerByte
	return p
}

// probeCostModel calibrates cost.Model on a quarter-height probe of the same
// shape and returns the relative error of its prediction for the full block.
func probeCostModel(g gemmProbe, threads int) (float64, error) {
	pm := g.m / 4
	if pm < 1 {
		pm = 1
	}
	model, err := cost.Calibrate(pm, g.n, g.f, 2, threads)
	if err != nil {
		return 0, err
	}
	return cost.RelativeError(model.PredictGemm(g.m, g.n, g.f), g.wall), nil
}

// probeStream is a STREAM-style triad, a[i] = b[i] + s·c[i], over three
// 64 MiB arrays split across the pinned threads: the memory-bandwidth
// denominator for blas.gemm_gbytes_s. words is the array length.
func probeStream(words, threads int) float64 {
	a, b, c := make([]float64, words), make([]float64, words), make([]float64, words)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	triad := func() {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := words*t/threads, words*(t+1)/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
	}
	wall := bestOf(4, triad)
	sink += a[words/2]
	return 3 * 8 * float64(words) / wall.Seconds() / 1e9
}

// probeDot times blas.Dot at the workload's factor count. div shrinks the
// repetition count of this and the following micro-probes (smoke runs).
func probeDot(users, items *mat.Matrix, div int) float64 {
	reps := (1 << 20) / div
	u := users.Row(0)
	n := items.Rows()
	wall := bestOf(3, func() {
		var s float64
		for i := 0; i < reps; i++ {
			s += blas.Dot(u, items.Row(i%n))
		}
		sink += s
	})
	return float64(wall.Nanoseconds()) / float64(reps)
}

// probeSelectRow times topk.SelectRow over one dense score row (one user
// against every item), per score.
func probeSelectRow(users, items *mat.Matrix, div int) float64 {
	scores := make([]float64, items.Rows())
	blas.GemvNT(items, users.Row(0), scores)
	reps := 1 + (1<<22)/div/len(scores)
	wall := bestOf(3, func() {
		for i := 0; i < reps; i++ {
			sink += topk.SelectRow(scores, 0, K)[0].Score
		}
	})
	return float64(wall.Nanoseconds()) / float64(reps*len(scores))
}

// shardLists builds S ranked lists of K entries each, as the coordinator
// sees them before a merge.
func shardLists(n int) [][]topk.Entry {
	lists := make([][]topk.Entry, n)
	for s := range lists {
		lists[s] = make([]topk.Entry, K)
		for r := range lists[s] {
			lists[s][r] = topk.Entry{Item: r*n + s, Score: float64(K*n - r*n - s)}
		}
	}
	return lists
}

// probeMergeK times MergeScratch.MergeK over S = 4 lists, per output entry.
func probeMergeK(div int) float64 {
	lists := shardLists(shards)
	var ms topk.MergeScratch
	reps := (1 << 17) / div
	wall := bestOf(3, func() {
		for i := 0; i < reps; i++ {
			sink += ms.MergeK(lists, K)[0].Score
		}
	})
	return float64(wall.Nanoseconds()) / float64(reps*K)
}

// probeCodec times topk.AppendRows / DecodeRows over one batch-sized reply
// (64 rows of K entries), per entry.
func probeCodec(div int) (encodeNs, decodeNs float64) {
	rows := make([][]topk.Entry, 64)
	for i := range rows {
		rows[i] = shardLists(1)[0]
	}
	reps := (1 << 12) / div
	entries := float64(reps * len(rows) * K)
	var buf []byte
	enc := bestOf(3, func() {
		for i := 0; i < reps; i++ {
			buf = topk.AppendRows(buf[:0], rows)
		}
	})
	dec := bestOf(3, func() {
		for i := 0; i < reps; i++ {
			got, _, err := topk.DecodeRows(buf)
			if err != nil {
				panic(err) // the bytes were produced by AppendRows a moment ago
			}
			sink += got[0][0].Score
		}
	})
	return float64(enc.Nanoseconds()) / entries, float64(dec.Nanoseconds()) / entries
}

// probeKMeans times kmeans.Run on the workload's users with MAXIMUS's
// default cluster and iteration counts.
func probeKMeans(users *mat.Matrix, threads int) (time.Duration, error) {
	t0 := time.Now()
	_, err := kmeans.Run(users, kmeans.Config{K: 8, Iterations: 3, Seed: 7, Threads: threads})
	return time.Since(t0), err
}

type solverProbe struct {
	build       time.Duration
	query       time.Duration
	usersPerS   float64
	scanPerUser float64
}

// probeSolver builds s over the corpus and answers the listed users once,
// under solver.build / solver.queryall spans. The answers are checked against
// the auditor and tallied in res.
func probeSolver(tr *tracer, parent int32, s mips.Solver, users, items *mat.Matrix, ids []int, aud *auditor, res *runResult) (solverProbe, error) {
	var p solverProbe
	id := tr.begin(spBuild, parent, -1)
	t0 := time.Now()
	if err := s.Build(users, items); err != nil {
		return p, err
	}
	p.build = time.Since(t0)
	tr.end(id, int64(items.Rows()))
	if sc, ok := s.(mips.ScanCounter); ok {
		sc.ResetScanStats()
	}
	id = tr.begin(spQueryAll, parent, -1)
	t0 = time.Now()
	rows, err := s.Query(ids, K)
	if err != nil {
		return p, err
	}
	p.query = time.Since(t0)
	tr.end(id, int64(len(ids)))
	p.usersPerS = float64(len(ids)) / p.query.Seconds()
	if sc, ok := s.(mips.ScanCounter); ok {
		p.scanPerUser = float64(sc.ScanStats().Scanned) / float64(len(ids))
	}
	res.audit(aud, ids, rows)
	return p, nil
}

// flatF32 is the reference row for a float32 kernel: a flat inner-product
// scan in the shape of FAISS's IndexFlatIP — every item scored against the
// query in float32, top-K kept in a small sorted array. It is not an exact
// solver (float32 rounding can reorder near-ties) and its answers are not
// checked; it prices what ROADMAP item 5(a) could buy before it is built.
type flatF32 struct {
	items []float32
	n, f  int
}

func newFlatF32(items *mat.Matrix) *flatF32 {
	x := &flatF32{items: make([]float32, len(items.Data())), n: items.Rows(), f: items.Cols()}
	for i, v := range items.Data() {
		x.items[i] = float32(v)
	}
	return x
}

func (x *flatF32) search(q []float32, ids *[K]int32, scores *[K]float32) {
	filled := 0
	for j := 0; j < x.n; j++ {
		row := x.items[j*x.f : (j+1)*x.f]
		var s0, s1 float32
		i := 0
		for ; i+2 <= len(row); i += 2 {
			s0 += q[i] * row[i]
			s1 += q[i+1] * row[i+1]
		}
		if i < len(row) {
			s0 += q[i] * row[i]
		}
		s := s0 + s1
		if filled == K && s <= scores[K-1] {
			continue
		}
		p := filled
		if filled < K {
			filled++
		} else {
			p = K - 1
		}
		for ; p > 0 && scores[p-1] < s; p-- {
			scores[p], ids[p] = scores[p-1], ids[p-1]
		}
		scores[p], ids[p] = s, int32(j)
	}
}

// probeFlatF32 answers the listed users with the flat float32 scan, split
// over the pinned threads, and returns users per second.
func probeFlatF32(users, items *mat.Matrix, ids []int, threads int) float64 {
	x := newFlatF32(items)
	t0 := time.Now()
	parallel.ForThreads(threads, len(ids), 64, func(lo, hi int) {
		q := make([]float32, x.f)
		var top [K]int32
		var sc [K]float32
		var acc float32
		for _, u := range ids[lo:hi] {
			for i, v := range users.Row(u) {
				q[i] = float32(v)
			}
			x.search(q, &top, &sc)
			acc += sc[0]
		}
		runtime.KeepAlive(acc)
	})
	return float64(len(ids)) / time.Since(t0).Seconds()
}
