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
//
// The users of one call share their first buckets. The head — the leading
// buckets the median sampled user enters — is scored for every user of a
// parallel chunk whose floor cannot prune inside it as one blocked multiply
// against a packed copy of those rows (MAXIMUS's shared block, §III-B), and
// each walk then resumes after the head. All three routines sum a score in
// the multiply's order (blas.DotFrom), so a walked score equals a multiplied
// one to the bit: answers do not depend on the routine, on which users were
// batched together, or on whether the head was used.
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

// tuning holds what LEMP adapts for one value of k: the per-bucket routine
// choices and the head.
type tuning struct {
	algos []Algorithm // nil until chosen, and after the bucket count changed
	// headBuckets is the head's depth in buckets, 0 until measured (a
	// snapshot restores algos only).
	headBuckets int
	// head is sorted rows [0, buckets[headBuckets-1].hi) packed for
	// blas.GemmNTPacked: nil until a call first has a user eligible for it,
	// and stale after a mutation until the next such call re-packs it.
	head      *blas.Packed
	headStale bool
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

	// mu guards tunings, including each tuning's lazily packed head.
	mu      sync.Mutex
	tunings map[int]*tuning

	// scanned counts candidate evaluations across queries (mips.ScanCounter);
	// tuning-sample walks are measurement overhead and are not counted.
	scanned atomic.Int64

	// scratches recycles the per-chunk scratch, whose head operands are
	// too large to allocate per call.
	scratches sync.Pool

	// gen is the mips.ItemMutator mutation stamp (see mutate section below).
	gen uint64

	buildTime time.Duration
}

// New returns an unbuilt LEMP index with the given configuration. A zero
// BucketSize falls back to DefaultConfig's and a zero Threads to the
// package-wide default; a zero TuneSample is kept and means INCR in every
// bucket (see Config).
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

// Batches implements mips.Solver: the head multiply amortizes the first
// buckets across the users of a call, so a sample is timed as one batch.
func (x *Index) Batches() bool { return true }

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

	x.dropTunings()
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
// the whole catalog. Bucket boundaries are re-cut (O(n/BucketSize)). Each per-k
// tuning keeps its head depth and marks its head stale; the next query that
// uses the head re-packs it into the same buffer, so the mutation itself
// copies nothing more. Tunings are performance adaptations, re-measured
// lazily when invalidated, never a correctness input.

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
// sorted order — shared by Build, Load and both mutations. Every tuning keeps
// its head depth and marks its head stale (a splice may have moved its rows);
// one whose bucket count no longer matches also forgets its routine choices,
// which are re-chosen lazily. Re-measuring the depth instead would stall the
// next query for a few dozen sample walks, and a corpus whose size hovers at a
// bucket boundary would pay that on most mutations.
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
	defer x.mu.Unlock()
	for _, tn := range x.tunings {
		if len(tn.algos) != len(x.buckets) {
			tn.algos = nil
			tn.headBuckets = min(tn.headBuckets, len(x.buckets))
		}
		tn.headStale = true
	}
}

// dropTunings forgets every per-k tuning: the corpus they were measured on
// is gone (Build, Load).
func (x *Index) dropTunings() {
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
	return x.query(nil, userIDs, k, nil)
}

// QueryCtx implements mips.Solver. A floor seeds each user's heap, so the
// bucket break and the scanLength/scanIncr prunes fire before the heap
// fills — on a high floor, often at the very first bucket. ctx is polled
// once per user and at every bucket boundary, so cancellation lands within
// one bucket scan.
func (x *Index) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	return x.query(ctx, userIDs, k, opts.Floors)
}

func (x *Index) query(ctx context.Context, userIDs []int, k int, floors []float64) ([][]topk.Entry, error) {
	if x.sorted == nil {
		return nil, fmt.Errorf("lemp: Query before Build")
	}
	if err := mips.ValidateK(k, x.sorted.Rows()); err != nil {
		return nil, err
	}
	c := &call{ctx: ctx, ids: userIDs, k: k, floors: floors,
		tn: x.tuningFor(k), out: make([][]topk.Entry, len(userIDs))}
	run := func(lo, hi int) error {
		scr := x.getScratch()
		defer x.putScratch(scr)
		return x.answerChunk(c, lo, hi, scr)
	}
	if err := parallel.ForErrCtx(ctx, x.cfg.Threads, len(userIDs), queryGrain, run); err != nil {
		return nil, err
	}
	return c.out, nil
}

// call is one query call's arguments, shared by its parallel chunks.
type call struct {
	ctx    context.Context // nil: no deadline
	ids    []int
	k      int
	floors []float64 // static floors, or nil
	tn     *tuning
	out    [][]topk.Entry
}

// answerChunk answers c.ids[lo:hi] — one parallel chunk, at most queryGrain
// users. A user whose floor cannot prune inside the head (even the head's
// smallest norm passes the length test against it) would enter every head
// bucket and score nearly all of it, so those users' heads are scored
// together by one multiply against the packed head and harvested into their
// heaps; their walks resume after the head. Floor-bearing users that the
// floor already prunes inside the head walk from the first bucket, as does
// everyone when the call has no eligible user — the head is then not even
// packed. The multiply gives the same floats for one user as for eight (a
// lone user's row padded to a full kernel tile), so a user's answer does not
// depend on its batch-mates.
func (x *Index) answerChunk(c *call, lo, hi int, scr *scratch) error {
	if err := mips.CtxErr(c.ctx); err != nil {
		return err
	}
	scr.ctx = c.ctx
	hb := c.tn.headBuckets
	headLen := x.buckets[hb-1].hi
	edge := x.norms[headLen-1]
	scr.walkers = scr.walkers[:0]
	m := 0
	for qi := lo; qi < hi; qi++ {
		u := c.ids[qi]
		if u < 0 || u >= x.users.Rows() {
			return fmt.Errorf("lemp: user id %d out of range [0,%d)", u, x.users.Rows())
		}
		w := walker{user: x.users.Row(u), floor: math.Inf(-1)}
		w.unorm = mat.Norm(w.user)
		if c.floors != nil {
			w.floor = c.floors[qi]
		}
		if w.unorm*edge >= w.floor-slack(w.floor) {
			w.headRow = m
			m++
		} else {
			w.headRow = -1
		}
		scr.walkers = append(scr.walkers, w)
	}
	var scores *mat.Matrix
	if m > 0 {
		a, cm := scr.operands(m, x.sorted.Cols(), headLen)
		for _, w := range scr.walkers {
			if w.headRow >= 0 {
				copy(a.Row(w.headRow), w.user)
			}
		}
		blas.GemmNTPacked(a, x.headFor(c.tn, headLen), cm, 1)
		scores = cm
	}
	for i, w := range scr.walkers {
		if err := mips.CtxErr(c.ctx); err != nil {
			return err
		}
		qi := lo + i
		h := topk.NewSeeded(c.k, w.floor)
		from := 0
		if w.headRow >= 0 {
			x.harvestHead(scores.Row(w.headRow), h, scr)
			from = hb
		}
		x.walk(w.user, w.unorm, h, c.tn, from, scr, nil)
		c.out[qi] = h.Sorted()
	}
	x.scanned.Add(scr.scanned)
	return nil
}

// harvestHead offers one user's head scores — scores[s] is sorted item s —
// to its heap. Once the heap prunes, the
// scores below the threshold are passed over by blas.Scan; a tie is left to
// Push, because norm order is not id order and the tie-break is by id.
func (x *Index) harvestHead(scores []float64, h *topk.Heap, scr *scratch) {
	scr.scanned += int64(len(scores))
	thr, full := h.Threshold()
	for s := 0; s < len(scores); s++ {
		if full {
			if s += blas.Scan(scores[s:], thr, blas.SkipBelow); s == len(scores) {
				return
			}
		}
		if h.Push(x.ids[s], scores[s]) {
			thr, full = h.Threshold()
		}
	}
}

// headFor returns tn's head packed over sorted rows [0, headLen): packed on
// the first call that needs it, and re-packed into the same buffer on the
// first such call after a mutation.
func (x *Index) headFor(tn *tuning, headLen int) *blas.Packed {
	x.mu.Lock()
	defer x.mu.Unlock()
	if tn.head == nil {
		tn.head, tn.headStale = new(blas.Packed), true
	}
	if tn.headStale {
		blas.Repack(tn.head, x.sorted.RowSlice(0, headLen), queryGrain)
		tn.headStale = false
	}
	return tn.head
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

// scratch holds per-goroutine temporaries reused across users, recycled
// across chunks and calls through Index.scratches.
type scratch struct {
	usuf1, usuf2 float64
	scanned      int64 // candidates evaluated, flushed per chunk
	bucketTimes  [][numAlgos]time.Duration
	ctx          context.Context // nil: no deadline; polled per bucket
	walkers      []walker
	a, c         *mat.Matrix // head multiply operands, queryGrain rows each
}

// walker is one user of a chunk. headRow is the user's row in the head
// multiply, or -1 when the floor prunes inside the head.
type walker struct {
	user         []float64
	unorm, floor float64
	headRow      int
}

func (x *Index) getScratch() *scratch {
	if scr, ok := x.scratches.Get().(*scratch); ok {
		return scr
	}
	return &scratch{}
}

func (x *Index) putScratch(scr *scratch) {
	scr.scanned, scr.ctx = 0, nil
	x.scratches.Put(scr)
}

// operands returns the head multiply's A (m×f) and C (m×headLen) as views of
// the scratch's buffers, reallocating them when the shape changed.
func (scr *scratch) operands(m, f, headLen int) (a, c *mat.Matrix) {
	if scr.a == nil || scr.a.Cols() != f {
		scr.a = mat.New(queryGrain, f)
	}
	if scr.c == nil || scr.c.Cols() != headLen {
		scr.c = mat.New(queryGrain, headLen)
	}
	return scr.a.RowSlice(0, m), scr.c.RowSlice(0, m)
}

// headSample is the number of users whose unfloored walks size the head.
const headSample = 32

// tuningFor returns the per-bucket algorithm choice and the head depth for
// k, measuring whichever is missing: both for a new k, the routines after a
// mutation changed the bucket count, the head after Load. LEMP's runtime
// adaptation: each routine is timed on a user sample and each bucket keeps
// its fastest.
func (x *Index) tuningFor(k int) *tuning {
	x.mu.Lock()
	defer x.mu.Unlock()
	tn, ok := x.tunings[k]
	if !ok {
		tn = &tuning{}
		x.tunings[k] = tn
	}
	if tn.algos == nil {
		tn.algos = x.chooseAlgos(k)
	}
	if tn.headBuckets == 0 {
		tn.headBuckets = x.headDepth(k, tn)
	}
	return tn
}

// chooseAlgos picks each bucket's routine for k: INCR everywhere when
// TuneSample is 0, else the fastest of the three on the timed sample.
func (x *Index) chooseAlgos(k int) []Algorithm {
	algos := make([]Algorithm, len(x.buckets))
	if x.cfg.TuneSample == 0 {
		for b := range algos {
			algos[b] = AlgoIncr
		}
		return algos
	}
	sampleRng := rand.New(rand.NewSource(x.cfg.Seed))
	sample := stats.SampleWithoutReplacement(sampleRng, x.users.Rows(), x.cfg.TuneSample)

	times := make([][numAlgos]time.Duration, len(x.buckets))
	scr := &scratch{bucketTimes: times}
	for a := Algorithm(0); a < numAlgos; a++ {
		forced := &tuning{algos: make([]Algorithm, len(x.buckets))}
		for b := range forced.algos {
			forced.algos[b] = a
		}
		for _, u := range sample {
			user := x.users.Row(u)
			x.walk(user, mat.Norm(user), topk.New(k), forced, 0, scr, &a)
		}
	}
	for b := range algos {
		best, bestT := AlgoLength, times[b][AlgoLength]
		for a := Algorithm(1); a < numAlgos; a++ {
			if times[b][a] < bestT {
				best, bestT = a, times[b][a]
			}
		}
		algos[b] = best
	}
	return algos
}

// headDepth measures the head for k: the number of leading buckets that the
// median of a seeded user sample enters on an unfloored walk — the depth
// MAXIMUS-style sharing pays off to, sized from scan depth, not set.
func (x *Index) headDepth(k int, tn *tuning) int {
	rng := rand.New(rand.NewSource(x.cfg.Seed))
	sample := stats.SampleWithoutReplacement(rng, x.users.Rows(), headSample)
	depths := make([]int, len(sample))
	scr := &scratch{}
	for i, u := range sample {
		user := x.users.Row(u)
		depths[i] = x.walk(user, mat.Norm(user), topk.New(k), tn, 0, scr, nil)
	}
	sort.Ints(depths)
	return depths[len(depths)/2]
}

// walk continues one user's top-k walk at bucket from, pruning against h's
// threshold (its floor, if seeded, from the first candidate), and returns the
// number of buckets it entered. If timeAlgo is non-nil, per-bucket elapsed
// time is accumulated into scr.bucketTimes[*][*timeAlgo].
func (x *Index) walk(user []float64, unorm float64, h *topk.Heap, tn *tuning, from int, scr *scratch, timeAlgo *Algorithm) int {
	scr.usuf1 = mat.Norm(user[x.cp1:])
	scr.usuf2 = mat.Norm(user[x.cp2:])
	entered := 0
	for b := from; b < len(x.buckets); b++ {
		bk := x.buckets[b]
		// Cancellation lands at the bucket boundary too: the partial heap is
		// discarded by the caller, which returns ctx.Err() from its own poll.
		if scr.ctx != nil && scr.ctx.Err() != nil {
			break
		}
		// Pruning must survive two hazards: an exact tie can still enter the
		// heap via the lower-item-id rule, and the bound itself is computed
		// in floating point (‖u‖·‖i‖ underestimates u·i when the vectors are
		// parallel: Cauchy–Schwarz equality meets sqrt rounding). So prune
		// only when the bound trails the threshold by more than fp slack.
		if thr, full := h.Threshold(); full && unorm*bk.maxNorm < thr-slack(thr) {
			break
		}
		entered++
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
	return entered
}

// scanLength walks the bucket in norm order pruning on ‖u‖·‖i‖.
func (x *Index) scanLength(user []float64, unorm float64, bk bucket, h *topk.Heap, scr *scratch) {
	for s := bk.lo; s < bk.hi; s++ {
		if thr, full := h.Threshold(); full && unorm*x.norms[s] < thr-slack(thr) {
			return // items are norm-sorted; the rest of the bucket is worse
		}
		scr.scanned++
		h.Push(x.ids[s], blas.DotFrom(0, user, x.sorted.Row(s)))
	}
}

// scanIncr adds two-checkpoint incremental pruning: a partial inner product
// over the leading coordinates plus a Cauchy–Schwarz bound on the remainder.
// The partial sums carry through to the full score in DotFrom's order, so the
// score is the one LENGTH, NAIVE and the head multiply compute. Items whose
// first checkpoint is computed count as scanned even when the tail bound then
// discards them — the partial product is real work.
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
		p1 := blas.DotFrom(0, u1, row[:x.cp1])
		if full && p1+scr.usuf1*x.suffix1[s] < thr-sl {
			continue // Cauchy–Schwarz: the tail cannot recover the deficit
		}
		p2 := blas.DotFrom(p1, u12, row[x.cp1:x.cp2])
		if full && p2+scr.usuf2*x.suffix2[s] < thr-sl {
			continue
		}
		h.Push(x.ids[s], blas.DotFrom(p2, u2, row[x.cp2:]))
	}
}

// scanNaive computes every inner product in the bucket.
func (x *Index) scanNaive(user []float64, bk bucket, h *topk.Heap, scr *scratch) {
	scr.scanned += int64(bk.hi - bk.lo)
	for s := bk.lo; s < bk.hi; s++ {
		h.Push(x.ids[s], blas.DotFrom(0, user, x.sorted.Row(s)))
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
