// Package lemp re-implements the LEMP index of Teflioudi et al. (SIGMOD 2015 /
// TODS 2016), the state-of-the-art exact MIPS baseline the paper benchmarks
// MAXIMUS and OPTIMUS against (§II-C). The variant implemented is LEMP-LI —
// length-based plus incremental pruning — which the LEMP authors report as
// their consistently fastest configuration and which the paper benchmarks.
//
// Structure: item vectors are sorted by Euclidean norm in descending order
// and partitioned into buckets of roughly equal cardinality. A user's top-K
// query walks buckets in norm order; once the bucket's largest norm cannot
// beat the current K-th score (‖u‖·ℓmax ≤ θ) the walk stops. Within a bucket
// the candidate subproblem is solved by one of three retrieval routines —
// LENGTH (norm pruning), INCR (partial inner products with a Cauchy–Schwarz
// tail bound), or NAIVE (full scan) — chosen per bucket by timing each
// routine on a small sample of users, exactly the runtime adaptation that
// the paper observes makes LEMP's sampled runtime estimates noisy (Fig 7).
package lemp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/blas"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/stats"
	"optimus/internal/topk"
)

// Algorithm identifies a within-bucket retrieval routine.
type Algorithm int

// Within-bucket retrieval routines.
const (
	AlgoLength Algorithm = iota // norm-product pruning, items in norm order
	AlgoIncr                    // partial inner products + Cauchy–Schwarz tail
	AlgoNaive                   // unpruned scan
	numAlgos
)

// String returns the routine name as used in LEMP's literature.
func (a Algorithm) String() string {
	switch a {
	case AlgoLength:
		return "LENGTH"
	case AlgoIncr:
		return "INCR"
	case AlgoNaive:
		return "NAIVE"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config controls index construction and tuning.
type Config struct {
	// BucketSize is the number of items per bucket (last bucket may be
	// smaller). The LEMP paper uses cardinality-balanced buckets sized so a
	// bucket fits in cache; 512 items ≈ 400 KB at f=100.
	BucketSize int
	// TuneSample is the number of users timed per retrieval routine when
	// choosing each bucket's algorithm. 0 disables tuning and uses INCR
	// everywhere (the "LI" default).
	TuneSample int
	// Threads parallelizes QueryAll across users.
	Threads int
	// Seed drives tuning-sample selection.
	Seed int64
}

// DefaultConfig mirrors the settings used for the paper's benchmarks.
func DefaultConfig() Config {
	return Config{BucketSize: 512, TuneSample: 24, Threads: 1, Seed: 1}
}

type bucket struct {
	lo, hi  int     // range in sorted-item order
	maxNorm float64 // norm of the first (largest) item in the bucket
}

// tuning holds the per-bucket algorithm choices for one value of k.
type tuning struct {
	algos []Algorithm
}

// Index is a built LEMP index. It is read-only after Build and safe for
// concurrent queries.
type Index struct {
	cfg   Config
	users *mat.Matrix

	// Items reordered by descending norm; row s is the s-th largest item.
	sorted *mat.Matrix
	// ids maps sorted position -> original item id.
	ids []int
	// norms[s] = ‖sorted.Row(s)‖, non-increasing.
	norms []float64
	// Suffix norms at the two INCR checkpoints: suffix1[s] covers
	// coordinates [cp1, f), suffix2[s] covers [cp2, f).
	cp1, cp2         int
	suffix1, suffix2 []float64

	buckets []bucket

	mu      sync.Mutex
	tunings map[int]*tuning

	// scanned counts candidate evaluations across queries (mips.ScanCounter);
	// tuning-sample walks are measurement overhead and are not counted.
	scanned atomic.Int64

	// gen is the mips.ItemMutator mutation stamp (see mutate section below).
	gen uint64

	buildTime time.Duration
}

// New returns an unbuilt LEMP index with the given configuration.
// Zero-valued fields fall back to DefaultConfig values.
func New(cfg Config) *Index {
	def := DefaultConfig()
	if cfg.BucketSize <= 0 {
		cfg.BucketSize = def.BucketSize
	}
	if cfg.TuneSample < 0 {
		cfg.TuneSample = 0
	}
	cfg.Threads = parallel.Resolve(cfg.Threads)
	return &Index{cfg: cfg}
}

// SetThreads implements mips.ThreadSetter: it adjusts query parallelism on
// the built index (n <= 0 selects the package-wide default).
func (x *Index) SetThreads(n int) { x.cfg.Threads = parallel.Resolve(n) }

// Name implements mips.Solver.
func (x *Index) Name() string { return "LEMP" }

// Batches implements mips.Solver. LEMP answers one user at a time.
func (x *Index) Batches() bool { return false }

// NumUsers implements mips.Sized.
func (x *Index) NumUsers() int {
	if x.users == nil {
		return 0
	}
	return x.users.Rows()
}

// NumItems implements mips.Sized.
func (x *Index) NumItems() int { return len(x.ids) }

// BuildTime returns the wall-clock cost of the last Build call — the index
// construction time Fig 4 compares against retrieval time.
func (x *Index) BuildTime() time.Duration { return x.buildTime }

// Build implements mips.Solver: sorts items by norm, forms buckets, and
// precomputes the INCR suffix norms.
func (x *Index) Build(users, items *mat.Matrix) error {
	start := time.Now()
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	x.users = users
	n := items.Rows()
	f := items.Cols()

	norms := items.RowNorms()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if norms[order[a]] != norms[order[b]] {
			return norms[order[a]] > norms[order[b]]
		}
		return order[a] < order[b]
	})
	x.ids = order
	x.sorted = items.SelectRows(order)
	x.norms = make([]float64, n)
	for s, id := range order {
		x.norms[s] = norms[id]
	}

	x.cp1 = f / 4
	x.cp2 = f / 2
	if x.cp1 < 1 {
		x.cp1 = 1
	}
	if x.cp2 <= x.cp1 {
		x.cp2 = x.cp1 + 1
	}
	if x.cp2 > f {
		x.cp2 = f
	}
	x.suffix1 = make([]float64, n)
	x.suffix2 = make([]float64, n)
	for s := 0; s < n; s++ {
		row := x.sorted.Row(s)
		x.suffix1[s] = mat.Norm(row[x.cp1:])
		x.suffix2[s] = mat.Norm(row[x.cp2:])
	}

	x.recutBuckets()
	x.scanned.Store(0)
	x.gen = 0
	x.buildTime = time.Since(start)
	return nil
}

// Item mutation (the mutable-corpus lifecycle). LEMP's whole structure is
// "items in descending-norm order, cut into buckets" — precisely the shape
// that is cheap to patch: a new item belongs at one position found by binary
// search on its norm, a removed item leaves a gap the compaction closes, and
// in both cases the suffix-norm tables of untouched items stay valid
// verbatim (they are item-intrinsic). What a fresh Build would redo and a
// mutation skips: the O(n log n) re-sort and the O(n·f) suffix-norm pass over
// the whole catalog. Bucket boundaries are re-cut (O(n/BucketSize)) and the
// per-k algorithm tunings dropped — they are performance adaptations
// re-measured lazily on the next query, never a correctness input.

// AddItems implements mips.ItemMutator (see the contract in internal/mips):
// merge the new items into the norm-sorted arrays at their sorted positions.
func (x *Index) AddItems(newItems *mat.Matrix) ([]int, error) {
	if x.sorted == nil {
		return nil, fmt.Errorf("lemp: AddItems before Build")
	}
	if err := mips.ValidateAddItems(newItems, x.sorted.Cols()); err != nil {
		return nil, err
	}
	n, m, f := x.sorted.Rows(), newItems.Rows(), x.sorted.Cols()
	base := n

	// Order the arrivals by (norm desc, id asc) — their ids are [base,
	// base+m) in row order, so ties among arrivals keep row order.
	addNorms := newItems.RowNorms()
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return addNorms[order[a]] > addNorms[order[b]] })

	// One-pass merge of the old sorted arrays with the sorted arrivals. On a
	// norm tie the old item goes first: every arrival's id exceeds every
	// existing id, matching Build's (norm desc, id asc) sort exactly.
	merged := mat.New(n+m, f)
	ids := make([]int, n+m)
	norms := make([]float64, n+m)
	suffix1 := make([]float64, n+m)
	suffix2 := make([]float64, n+m)
	i, j := 0, 0
	for w := 0; w < n+m; w++ {
		takeOld := i < n && (j >= m || x.norms[i] >= addNorms[order[j]])
		if takeOld {
			copy(merged.Row(w), x.sorted.Row(i))
			ids[w], norms[w] = x.ids[i], x.norms[i]
			suffix1[w], suffix2[w] = x.suffix1[i], x.suffix2[i]
			i++
			continue
		}
		r := order[j]
		row := newItems.Row(r)
		copy(merged.Row(w), row)
		ids[w], norms[w] = base+r, addNorms[r]
		suffix1[w] = mat.Norm(row[x.cp1:])
		suffix2[w] = mat.Norm(row[x.cp2:])
		j++
	}
	x.sorted, x.ids, x.norms, x.suffix1, x.suffix2 = merged, ids, norms, suffix1, suffix2
	x.recutBuckets()
	x.gen++
	return mips.IDRange(base, m), nil
}

// RemoveItems implements mips.ItemMutator: drop the tombstoned rows from the
// sorted arrays and renumber survivors under the compaction contract (the
// renumbering is monotone, so the norm-then-id order is preserved).
func (x *Index) RemoveItems(removeIDs []int) error {
	if x.sorted == nil {
		return fmt.Errorf("lemp: RemoveItems before Build")
	}
	n := x.sorted.Rows()
	sorted, err := mips.ValidateRemoveIDs(removeIDs, n)
	if err != nil {
		return err
	}
	rm := make([]bool, n)
	for _, id := range sorted {
		rm[id] = true
	}
	w := 0
	for s := 0; s < n; s++ {
		if rm[x.ids[s]] {
			continue
		}
		if w != s {
			copy(x.sorted.Row(w), x.sorted.Row(s))
		}
		x.ids[w] = x.ids[s] - mips.RemovedBefore(sorted, x.ids[s])
		x.norms[w] = x.norms[s]
		x.suffix1[w] = x.suffix1[s]
		x.suffix2[w] = x.suffix2[s]
		w++
	}
	x.sorted = x.sorted.RowSlice(0, w)
	x.ids = x.ids[:w]
	x.norms = x.norms[:w]
	x.suffix1 = x.suffix1[:w]
	x.suffix2 = x.suffix2[:w]
	x.recutBuckets()
	x.gen++
	return nil
}

// Generation implements mips.ItemMutator.
func (x *Index) Generation() uint64 { return x.gen }

// recutBuckets (re)cuts the cardinality-balanced buckets over the current
// sorted order and resets the per-k algorithm tunings — shared by Build and
// by both mutations (after a splice the bucket boundaries moved, so the old
// timings no longer describe these buckets; tunings re-measure lazily).
func (x *Index) recutBuckets() {
	n := x.sorted.Rows()
	x.buckets = x.buckets[:0]
	for lo := 0; lo < n; lo += x.cfg.BucketSize {
		hi := lo + x.cfg.BucketSize
		if hi > n {
			hi = n
		}
		x.buckets = append(x.buckets, bucket{lo: lo, hi: hi, maxNorm: x.norms[lo]})
	}
	x.mu.Lock()
	x.tunings = make(map[int]*tuning)
	x.mu.Unlock()
}

// AddUsers implements mips.UserAdder: new user rows join the query matrix.
// The index is item-side only, so no structure maintenance is needed; the
// per-k tunings stay (they remain valid algorithm choices — tuning is an
// adaptation, not a correctness input).
func (x *Index) AddUsers(users *mat.Matrix) ([]int, error) {
	if x.users == nil {
		return nil, fmt.Errorf("lemp: AddUsers before Build")
	}
	if err := mips.ValidateAddUsers(users, x.users.Cols()); err != nil {
		return nil, err
	}
	base := x.users.Rows()
	x.users = mat.AppendRows(x.users, users)
	return mips.IDRange(base, users.Rows()), nil
}

// ScanStats implements mips.ScanCounter: candidates evaluated by the
// within-bucket retrieval routines (items skipped by the bucket break or the
// norm/incremental prunes are not counted).
func (x *Index) ScanStats() mips.ScanStats { return mips.ScanStats{Scanned: x.scanned.Load()} }

// ResetScanStats implements mips.ScanCounter.
func (x *Index) ResetScanStats() { x.scanned.Store(0) }

// Query implements mips.Solver.
func (x *Index) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	return x.query(nil, userIDs, k, nil, nil)
}

// QueryWithFloors implements mips.ThresholdQuerier: each user's heap is
// seeded with its floor, so the bucket break and the scanLength/scanIncr
// prunes fire before the heap fills — on a high floor, often at the very
// first bucket. Results honor the floor contract (see mips.ThresholdQuerier).
func (x *Index) QueryWithFloors(userIDs []int, k int, floors []float64) ([][]topk.Entry, error) {
	if err := mips.ValidateFloors(userIDs, floors); err != nil {
		return nil, err
	}
	return x.query(nil, userIDs, k, floors, nil)
}

// QueryWithFloorBoard implements mips.LiveFloorQuerier: the board seeds each
// user's heap exactly like a static floor, and is re-polled at every bucket
// boundary — the same decision point where the bucket break already fires —
// so a floor raised by a concurrently finishing shard tightens this walk's
// break and within-bucket prunes mid-query. See the contract on
// mips.LiveFloorQuerier for why monotone tightening preserves the
// floor-prefix result.
func (x *Index) QueryWithFloorBoard(userIDs []int, k int, board *topk.FloorBoard) ([][]topk.Entry, error) {
	if err := mips.ValidateFloorBoard(userIDs, board); err != nil {
		return nil, err
	}
	return x.query(nil, userIDs, k, nil, board)
}

// QueryCtx implements mips.CancellableQuerier: ctx is polled once per user
// and at every bucket boundary — the same seam the live floor board polls —
// so cancellation lands within one bucket scan.
func (x *Index) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	return x.query(ctx, userIDs, k, opts.Floors, opts.Board)
}

func (x *Index) query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error) {
	if x.sorted == nil {
		return nil, fmt.Errorf("lemp: Query before Build")
	}
	if err := mips.ValidateK(k, x.sorted.Rows()); err != nil {
		return nil, err
	}
	tn := x.tuningFor(k)
	out := make([][]topk.Entry, len(userIDs))
	run := func(lo, hi int) error {
		scratch := newScratch()
		scratch.ctx = ctx
		for qi := lo; qi < hi; qi++ {
			if err := mips.CtxErr(ctx); err != nil {
				return err
			}
			u := userIDs[qi]
			if u < 0 || u >= x.users.Rows() {
				return fmt.Errorf("lemp: user id %d out of range [0,%d)", u, x.users.Rows())
			}
			floor := math.Inf(-1)
			if floors != nil {
				floor = floors[qi]
			} else if board != nil {
				floor = board.Floor(qi)
			}
			scratch.board, scratch.cell = board, qi
			out[qi] = x.queryOne(x.users.Row(u), k, floor, tn, scratch, nil)
		}
		x.scanned.Add(scratch.scanned)
		scratch.scanned = 0
		return nil
	}
	if err := parallel.ForErrCtx(ctx, x.cfg.Threads, len(userIDs), queryGrain, run); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryAll implements mips.Solver.
func (x *Index) QueryAll(k int) ([][]topk.Entry, error) {
	if x.users == nil {
		return nil, fmt.Errorf("lemp: QueryAll before Build")
	}
	return x.Query(mips.AllUserIDs(x.users.Rows()), k)
}

// ChosenAlgorithms returns the per-bucket routine selection for depth k,
// tuning first if needed. Exposed for the tuning tests and the ablation
// experiments.
func (x *Index) ChosenAlgorithms(k int) []Algorithm {
	tn := x.tuningFor(k)
	out := make([]Algorithm, len(tn.algos))
	copy(out, tn.algos)
	return out
}

// scratch holds per-goroutine temporaries reused across users. board/cell,
// when set, identify the live floor cell of the user currently being
// answered (QueryWithFloorBoard); both are reassigned per user.
type scratch struct {
	usuf1, usuf2 float64
	scanned      int64 // candidates evaluated, flushed per chunk
	bucketTimes  [][numAlgos]time.Duration
	board        *topk.FloorBoard
	cell         int
	ctx          context.Context // nil outside QueryCtx; polled per bucket
}

func newScratch() *scratch { return &scratch{} }

// tuningFor returns (building if necessary) the per-bucket algorithm choice
// for depth k. LEMP's runtime adaptation: each routine is timed on a user
// sample and each bucket keeps its fastest.
func (x *Index) tuningFor(k int) *tuning {
	x.mu.Lock()
	defer x.mu.Unlock()
	if tn, ok := x.tunings[k]; ok {
		return tn
	}
	tn := &tuning{algos: make([]Algorithm, len(x.buckets))}
	if x.cfg.TuneSample == 0 {
		for b := range tn.algos {
			tn.algos[b] = AlgoIncr
		}
		x.tunings[k] = tn
		return tn
	}
	sampleRng := rand.New(rand.NewSource(x.cfg.Seed))
	sample := stats.SampleWithoutReplacement(sampleRng, x.users.Rows(), x.cfg.TuneSample)

	times := make([][numAlgos]time.Duration, len(x.buckets))
	scr := newScratch()
	for a := Algorithm(0); a < numAlgos; a++ {
		forced := &tuning{algos: make([]Algorithm, len(x.buckets))}
		for b := range forced.algos {
			forced.algos[b] = a
		}
		scr.bucketTimes = times
		for _, u := range sample {
			x.queryOne(x.users.Row(u), k, math.Inf(-1), forced, scr, &a)
		}
		scr.bucketTimes = nil
	}
	for b := range tn.algos {
		best, bestT := AlgoLength, times[b][AlgoLength]
		for a := Algorithm(1); a < numAlgos; a++ {
			if times[b][a] < bestT {
				best, bestT = a, times[b][a]
			}
		}
		tn.algos[b] = best
	}
	x.tunings[k] = tn
	return tn
}

// queryOne answers one user's top-k, pruning against floor (-Inf = none)
// from the first candidate. If timeAlgo is non-nil, per-bucket elapsed time
// is accumulated into scratch.bucketTimes[*][*timeAlgo].
func (x *Index) queryOne(user []float64, k int, floor float64, tn *tuning, scr *scratch, timeAlgo *Algorithm) []topk.Entry {
	unorm := mat.Norm(user)
	scr.usuf1 = mat.Norm(user[x.cp1:])
	scr.usuf2 = mat.Norm(user[x.cp2:])
	h := topk.NewSeeded(k, floor)
	for b, bk := range x.buckets {
		// Cancellation lands at the bucket boundary too: the partial heap is
		// discarded by the caller, which returns ctx.Err() from its own poll.
		if scr.ctx != nil && scr.ctx.Err() != nil {
			break
		}
		// Live floors: re-poll the user's board cell at the bucket boundary,
		// so a bound published by a concurrent shard tightens this walk's
		// break and the within-bucket prunes below (monotone — see
		// mips.LiveFloorQuerier).
		if scr.board != nil {
			h.RaiseFloor(scr.board.Floor(scr.cell))
		}
		// Pruning must survive two hazards: an exact tie can still enter the
		// heap via the lower-item-id rule, and the bound itself is computed
		// in floating point (‖u‖·‖i‖ underestimates u·i when the vectors are
		// parallel: Cauchy–Schwarz equality meets sqrt rounding). So prune
		// only when the bound trails the threshold by more than fp slack.
		if thr, full := h.Threshold(); full && unorm*bk.maxNorm < thr-slack(thr) {
			break
		}
		var begin time.Time
		if timeAlgo != nil {
			begin = time.Now()
		}
		switch tn.algos[b] {
		case AlgoLength:
			x.scanLength(user, unorm, bk, h, scr)
		case AlgoIncr:
			x.scanIncr(user, unorm, bk, h, scr)
		default:
			x.scanNaive(user, bk, h, scr)
		}
		if timeAlgo != nil {
			scr.bucketTimes[b][*timeAlgo] += time.Since(begin)
		}
	}
	return h.Sorted()
}

// scanLength walks the bucket in norm order pruning on ‖u‖·‖i‖.
func (x *Index) scanLength(user []float64, unorm float64, bk bucket, h *topk.Heap, scr *scratch) {
	for s := bk.lo; s < bk.hi; s++ {
		if thr, full := h.Threshold(); full && unorm*x.norms[s] < thr-slack(thr) {
			return // items are norm-sorted; the rest of the bucket is worse
		}
		scr.scanned++
		h.Push(x.ids[s], blas.Dot(user, x.sorted.Row(s)))
	}
}

// scanIncr adds two-checkpoint incremental pruning: a partial inner product
// over the leading coordinates plus a Cauchy–Schwarz bound on the remainder.
// Items whose first checkpoint is computed count as scanned even when the
// tail bound then discards them — the partial product is real work.
func (x *Index) scanIncr(user []float64, unorm float64, bk bucket, h *topk.Heap, scr *scratch) {
	u1 := user[:x.cp1]
	u12 := user[x.cp1:x.cp2]
	u2 := user[x.cp2:]
	for s := bk.lo; s < bk.hi; s++ {
		thr, full := h.Threshold()
		sl := slack(thr)
		if full && unorm*x.norms[s] < thr-sl {
			return
		}
		scr.scanned++
		row := x.sorted.Row(s)
		p1 := blas.Dot(u1, row[:x.cp1])
		if full && p1+scr.usuf1*x.suffix1[s] < thr-sl {
			continue // Cauchy–Schwarz: the tail cannot recover the deficit
		}
		p2 := p1 + blas.Dot(u12, row[x.cp1:x.cp2])
		if full && p2+scr.usuf2*x.suffix2[s] < thr-sl {
			continue
		}
		h.Push(x.ids[s], p2+blas.Dot(u2, row[x.cp2:]))
	}
}

// scanNaive computes every inner product in the bucket.
func (x *Index) scanNaive(user []float64, bk bucket, h *topk.Heap, scr *scratch) {
	scr.scanned += int64(bk.hi - bk.lo)
	for s := bk.lo; s < bk.hi; s++ {
		h.Push(x.ids[s], blas.Dot(user, x.sorted.Row(s)))
	}
}

// slack returns the floating-point guard band for pruning against threshold
// thr: bounds within this distance of thr are verified exactly instead of
// pruned, so rounding in the bound computation can never discard a true
// top-K member (see the parallel-vectors hazard in queryOne).
func slack(thr float64) float64 {
	return 1e-12 * (1 + math.Abs(thr))
}

// queryGrain is the per-user chunk size handed to the shared parallel worker
// pool: small enough that a served batch of a few dozen users spreads over
// every thread (the per-chunk scratch is one small struct), large enough to
// amortize dispatch. Users are independent and the scan meter is additive,
// so answers and ScanStats do not depend on it.
const queryGrain = 8

// Buckets returns the number of buckets in the built index.
func (x *Index) Buckets() int { return len(x.buckets) }

// boundCheck is exported to tests via export_test.go: it validates that the
// incremental bound at checkpoint cp1 really is an upper bound on the full
// inner product for the item at sorted position s.
func (x *Index) boundCheck(user []float64, s int) (bound, truth float64) {
	row := x.sorted.Row(s)
	p1 := blas.Dot(user[:x.cp1], row[:x.cp1])
	usuf := mat.Norm(user[x.cp1:])
	bound = p1 + usuf*x.suffix1[s]
	truth = blas.Dot(user, row)
	return bound, truth
}
