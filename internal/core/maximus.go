package core

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
	"optimus/internal/kmeans"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/stats"
	"optimus/internal/topk"
)

// MaximusConfig holds the index parameters from §III-D. The paper's sweep
// found B = 4096, |C| = 8, i = 3 effective across inputs and reports all
// results with those settings; |C| and i are the defaults here, and B
// defaults to walkSegment (see BlockSize).
type MaximusConfig struct {
	// Clusters is |C|, the number of user clusters.
	Clusters int
	// KMeansIters is i, the number of Lloyd iterations.
	KMeansIters int
	// BlockSize is B, the one rule for the first segment of every cluster's
	// walk: its first max(k, B) list entries are scored for the cluster's
	// queried users with one blocked matrix multiply (§III-D), and later
	// segments are walkSegment (256) entries long. Zero (or less) selects
	// B = walkSegment; the paper's B = 4096 would cover most of a small
	// item set. Set DisableItemBlocking for the Fig 8 lesion.
	BlockSize int
	// DisableItemBlocking turns off the shared multiplies (lesion study):
	// every user walks alone, one dot product per list position.
	DisableItemBlocking bool
	// Spherical switches user clustering to spherical k-means (§III-A
	// ablation; the paper ships with plain k-means).
	Spherical bool
	// ClusterSampleFraction, when in (0, 1), runs k-means on only that
	// fraction of users and assigns the rest to the resulting centroids —
	// the §III-E strategy for large or growing user sets.
	ClusterSampleFraction float64
	// Seed drives k-means seeding and user sampling.
	Seed int64
	// Threads parallelizes clustering, construction GEMMs, and queries; 0
	// (the zero value) defers to the package-wide parallel.Threads()
	// default, normally all cores.
	Threads int
}

// DefaultMaximusConfig returns the paper's published |C| and i (§III-D) and
// B = walkSegment, so every cluster's walk starts with one max(k, 256)-entry
// multiply (see BlockSize). Threads 0 means "follow the package-wide
// parallel.Threads() default", resolved by NewMaximus at construction.
func DefaultMaximusConfig() MaximusConfig {
	return MaximusConfig{Clusters: 8, KMeansIters: 3, BlockSize: walkSegment}
}

// MaximusTimings is the stage breakdown Fig 8 reports: clustering and index
// construction (bounds + sorting).
type MaximusTimings struct {
	Clustering   time.Duration
	Construction time.Duration
}

// MaximusQueryStats instruments one Query call.
type MaximusQueryStats struct {
	// Traversal is the wall-clock time of the index walk (Fig 8's dominant
	// stage).
	Traversal time.Duration
	// ItemsVisited is the total number of list positions scored, the
	// multiplied segments' overshoot past each user's cut included;
	// ItemsVisited/users = w̄ from the runtime analysis (Equation 4).
	ItemsVisited int64
}

// Maximus is the paper's index (§III, Algorithm 1): users are clustered,
// each cluster gets an item list sorted by the Equation 3 upper bound, and a
// user's exact top-K walk early-terminates once the bound falls below the
// current K-th score. The walk is scored in list segments, each with one
// blocked matrix multiply over the cluster's queried users still walking.
type Maximus struct {
	cfg   MaximusConfig
	users *mat.Matrix
	items *mat.Matrix

	userNorm  []float64
	clusterOf []int   // user -> cluster
	members   [][]int // cluster -> user ids
	centroids *mat.Matrix
	thetaB    []float64 // per-cluster max member angle

	lists  [][]int32   // per cluster: item ids sorted by bound descending
	bounds [][]float64 // aligned Equation 3 bound values (non-increasing)

	// scanned accumulates ItemsVisited across queries (mips.ScanCounter).
	scanned atomic.Int64

	// gen is the mips.ItemMutator mutation stamp (see dynamic.go).
	gen uint64

	timings MaximusTimings
}

// NewMaximus returns an unbuilt MAXIMUS index. Zero-valued fields fall back
// to DefaultMaximusConfig's (B=256, |C|=8, i=3).
func NewMaximus(cfg MaximusConfig) *Maximus {
	def := DefaultMaximusConfig()
	if cfg.Clusters <= 0 {
		cfg.Clusters = def.Clusters
	}
	if cfg.KMeansIters <= 0 {
		cfg.KMeansIters = def.KMeansIters
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = def.BlockSize
	}
	cfg.Threads = parallel.Resolve(cfg.Threads)
	if cfg.ClusterSampleFraction < 0 || cfg.ClusterSampleFraction >= 1 {
		cfg.ClusterSampleFraction = 0
	}
	return &Maximus{cfg: cfg}
}

// Name implements mips.Solver.
func (m *Maximus) Name() string { return "MAXIMUS" }

// SetThreads implements mips.ThreadSetter: it adjusts query parallelism on
// the built index (n <= 0 selects the package-wide default). Walk order and
// segments are fixed at Build, so changing threads never changes results.
func (m *Maximus) SetThreads(n int) { m.cfg.Threads = parallel.Resolve(n) }

// Batches implements mips.Solver: the walk's shared multiplies amortize work
// across a cluster's users, so OPTIMUS must measure MAXIMUS on whole samples
// (§IV-A: the t-test shortcut is unavailable for batching indexes).
func (m *Maximus) Batches() bool { return true }

// NumUsers implements mips.Sized.
func (m *Maximus) NumUsers() int {
	if m.users == nil {
		return 0
	}
	return m.users.Rows()
}

// NumItems implements mips.Sized.
func (m *Maximus) NumItems() int {
	if m.items == nil {
		return 0
	}
	return m.items.Rows()
}

// Timings returns the Build stage breakdown.
func (m *Maximus) Timings() MaximusTimings { return m.timings }

// BuildTime returns total Build cost (clustering + construction).
func (m *Maximus) BuildTime() time.Duration {
	return m.timings.Clustering + m.timings.Construction
}

// ThetaB returns the per-cluster distortion bounds (radians), exposed for
// the bound-validity property tests.
func (m *Maximus) ThetaB() []float64 { return m.thetaB }

// ClusterOf returns the cluster assignment for each user.
func (m *Maximus) ClusterOf() []int { return m.clusterOf }

// Build implements mips.Solver: ConstructIndex from Algorithm 1.
func (m *Maximus) Build(users, items *mat.Matrix) error {
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	m.users, m.items = users, items
	m.userNorm = users.RowNorms()

	// Stage 1: cluster users (optionally on a sample, assigning the rest).
	t0 := time.Now()
	if err := m.clusterUsers(); err != nil {
		return err
	}
	m.timings.Clustering = time.Since(t0)

	// Stage 2: θb per cluster, Equation 3 bounds, sorted lists.
	t1 := time.Now()
	m.constructLists()
	m.timings.Construction = time.Since(t1)
	m.scanned.Store(0)
	m.gen = 0
	return nil
}

// ScanStats implements mips.ScanCounter: list positions scored across
// queries, the multiplied segments' overshoot past each user's cut included
// (it is GEMM-scored work).
func (m *Maximus) ScanStats() mips.ScanStats { return mips.ScanStats{Scanned: m.scanned.Load()} }

// ResetScanStats implements mips.ScanCounter.
func (m *Maximus) ResetScanStats() { m.scanned.Store(0) }

func (m *Maximus) clusterUsers() error {
	nUsers := m.users.Rows()
	cfg := kmeans.Config{
		K:          m.cfg.Clusters,
		Iterations: m.cfg.KMeansIters,
		Spherical:  m.cfg.Spherical,
		Seed:       m.cfg.Seed,
		Threads:    m.cfg.Threads,
	}
	if f := m.cfg.ClusterSampleFraction; f > 0 {
		// §III-E: k-means on a sample, assignment-only for the remainder.
		rng := rand.New(rand.NewSource(m.cfg.Seed))
		sampleSize := int(math.Ceil(f * float64(nUsers)))
		if sampleSize < m.cfg.Clusters {
			sampleSize = m.cfg.Clusters
		}
		if sampleSize > nUsers {
			sampleSize = nUsers
		}
		sample := stats.SampleWithoutReplacement(rng, nUsers, sampleSize)
		res, err := kmeans.Run(m.users.SelectRows(sample), cfg)
		if err != nil {
			return fmt.Errorf("core: clustering: %w", err)
		}
		m.centroids = res.Centroids
		m.clusterOf = kmeans.AssignOnly(m.users, m.centroids, m.cfg.Threads)
	} else {
		res, err := kmeans.Run(m.users, cfg)
		if err != nil {
			return fmt.Errorf("core: clustering: %w", err)
		}
		m.centroids = res.Centroids
		m.clusterOf = res.Assign
	}
	nClusters := m.centroids.Rows()
	m.members = make([][]int, nClusters)
	for u, c := range m.clusterOf {
		m.members[c] = append(m.members[c], u)
	}
	// θb_j = max_{u ∈ C_j} θuc — over *all* members, including assign-only
	// users, or the Equation 3 bound would not cover them.
	m.thetaB = make([]float64, nClusters)
	for u, c := range m.clusterOf {
		if a := mat.Angle(m.users.Row(u), m.centroids.Row(c)); a > m.thetaB[c] {
			m.thetaB[c] = a
		}
	}
	return nil
}

func (m *Maximus) constructLists() {
	nClusters := m.centroids.Rows()
	nItems := m.items.Rows()
	itemNorm := m.items.RowNorms()
	centroidNorm := m.centroids.RowNorms()

	// cᵀi for every centroid/item pair in one blocked multiply.
	dots := mat.New(nClusters, nItems)
	blas.GemmNTParallel(m.centroids, m.items, dots, m.cfg.Threads)

	m.lists = make([][]int32, nClusters)
	m.bounds = make([][]float64, nClusters)
	parallel.ForThreads(m.cfg.Threads, nClusters, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			bound := make([]float64, nItems)
			for i := 0; i < nItems; i++ {
				bound[i] = CBound(dots.At(c, i), centroidNorm[c], itemNorm[i], m.thetaB[c])
			}
			ids := make([]int32, nItems)
			sortClusterList(ids, bound)
			sortedBounds := make([]float64, nItems)
			for pos, id := range ids {
				sortedBounds[pos] = bound[id]
			}
			m.lists[c] = ids
			m.bounds[c] = sortedBounds
		}
	})
}

// sortClusterList fills ids with the item ids 0..len(bound)-1 ordered by
// descending bound[id], ties toward the lower id — the walk order of a
// cluster list. It is one stable LSD radix sort over an order-preserving
// key of the bound: ids start ascending, so equal keys keep id order, and
// −0 shares +0's key because the two compare equal. Byte positions that
// every key shares are skipped.
func sortClusterList(ids []int32, bound []float64) {
	n := len(bound)
	keys := make([]uint64, n)
	var counts [8][256]int
	for i, b := range bound {
		k := descendingKey(b)
		keys[i] = k
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
		ids[i] = int32(i)
	}
	if n < 2 {
		return
	}
	srcK, srcI := keys, ids
	dstK, dstI := make([]uint64, n), make([]int32, n)
	for d := range counts {
		cnt := &counts[d]
		if cnt[byte(keys[0]>>(8*d))] == n {
			continue
		}
		sum := 0
		for b, c := range cnt {
			cnt[b], sum = sum, sum+c
		}
		for i, k := range srcK {
			b := byte(k >> (8 * d))
			dstK[cnt[b]], dstI[cnt[b]] = k, srcI[i]
			cnt[b]++
		}
		srcK, dstK = dstK, srcK
		srcI, dstI = dstI, srcI
	}
	copy(ids, srcI)
}

// descendingKey maps a bound to a uint64 whose ascending order is the
// bound's descending order: the IEEE-754 bits with negatives flipped and
// positives offset above them, then complemented. −0 maps to +0's key.
func descendingKey(x float64) uint64 {
	if x == 0 {
		x = 0 // −0 → +0
	}
	b := math.Float64bits(x)
	if b>>63 != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// CBound is Equation 3: the cluster-level upper bound on the norm-scaled
// rating r*_ci. dot is cᵀi; cnorm, inorm the vector norms; thetaB the
// cluster's distortion bound.
func CBound(dot, cnorm, inorm, thetaB float64) float64 {
	if inorm == 0 {
		return 0
	}
	var thetaIC float64
	if cnorm == 0 {
		thetaIC = 0 // degenerate centroid: fall through to the ‖i‖ branch
	} else {
		cos := dot / (cnorm * inorm)
		if cos > 1 {
			cos = 1
		} else if cos < -1 {
			cos = -1
		}
		thetaIC = math.Acos(cos)
	}
	if thetaB < thetaIC {
		return inorm * math.Cos(thetaIC-thetaB)
	}
	return inorm
}

// Query implements mips.Solver: QueryIndex from Algorithm 1, with the walk
// scored in §III-D shared blocks.
func (m *Maximus) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	res, _, err := m.QueryStats(userIDs, k)
	return res, err
}

// QueryStats is Query with traversal instrumentation.
func (m *Maximus) QueryStats(userIDs []int, k int) ([][]topk.Entry, MaximusQueryStats, error) {
	return m.queryStats(nil, userIDs, k, nil)
}

// QueryCtx implements mips.Solver. A floor seeds each user's heap, so the
// sorted-bound walk terminates as soon as the Equation 3 bound trails it —
// before the heap fills, and before the first segment's multiply when even
// the list's top bound trails it. ctx is polled before every walk segment.
func (m *Maximus) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	res, _, err := m.queryStats(ctx, userIDs, k, opts.Floors)
	return res, err
}

// walkSegment is the length of every walk segment after the first, the
// default B (see MaximusConfig.BlockSize), and how many positions a lone
// walker scores between polls of ctx.
const walkSegment = 256

// walkChunkUsers is the most queried users of one cluster that walk
// together: the row count of each segment's multiply.
const walkChunkUsers = 64

// minSharedRows is the GEMM micro-kernel's row count. A multiply over fewer
// users spends most of its kernel tile on padding, so they walk alone
// instead.
const minSharedRows = 4

func (m *Maximus) queryStats(ctx context.Context, userIDs []int, k int, floors []float64) ([][]topk.Entry, MaximusQueryStats, error) {
	var st MaximusQueryStats
	if m.lists == nil {
		return nil, st, fmt.Errorf("core: MAXIMUS Query before Build")
	}
	if err := mips.ValidateK(k, m.items.Rows()); err != nil {
		return nil, st, err
	}
	start := time.Now()
	// Group queried users by cluster. Each group is cut into chunks that
	// share one walk; a cluster's chunks run in parallel, the clusters one
	// after another, so a batch smaller than walkChunkUsers per cluster (an
	// OPTIMUS sample) runs on one core, as BMM's multiply of it does.
	byCluster := make([][]int, m.centroids.Rows()) // positions into userIDs
	for qi, u := range userIDs {
		if u < 0 || u >= m.users.Rows() {
			return nil, st, fmt.Errorf("core: user id %d out of range [0,%d)", u, m.users.Rows())
		}
		c := m.clusterOf[u]
		byCluster[c] = append(byCluster[c], qi)
	}
	q := &walkCall{ctx: ctx, ids: userIDs, k: k, floors: floors,
		out: make([][]topk.Entry, len(userIDs))}
	var visited atomic.Int64
	segs, _ := walkSegs.Get().(*segCache)
	if segs == nil {
		segs = new(segCache)
	}
	defer walkSegs.Put(segs)
	for c, qs := range byCluster {
		if len(qs) > 0 {
			// The first segment holds at least one position and every later
			// one walkSegment, so this bounds the list's segment count.
			segs.reset(len(m.lists[c])/walkSegment + 2)
		}
		err := parallel.ForErrCtx(ctx, m.cfg.Threads, len(qs), walkChunkUsers, func(lo, hi int) error {
			scr, ok := walkScratches.Get().(*walkScratch)
			if !ok {
				scr = new(walkScratch)
			}
			defer walkScratches.Put(scr)
			n, err := m.walkChunk(q, qs[lo:hi], segs, scr)
			visited.Add(n)
			return err
		})
		if err != nil {
			return nil, st, err
		}
	}
	st.Traversal = time.Since(start)
	st.ItemsVisited = visited.Load()
	m.scanned.Add(st.ItemsVisited)
	return q.out, st, nil
}

// walkCall is one query call's arguments, shared by its parallel chunks.
type walkCall struct {
	ctx    context.Context // nil: no deadline
	ids    []int
	k      int
	floors []float64 // static floors aligned with ids, or nil
	out    [][]topk.Entry
}

// walker is one user of a chunk walk.
type walker struct {
	qi    int // position in the call's ids
	user  []float64
	unorm float64
	h     *topk.Heap
}

// cut reports whether the Equation 3 bound at a list position, scaled by the
// user's norm, proves that no entry from there on can enter w's heap.
func (w *walker) cut(bound float64) bool {
	thr, ok := w.h.Threshold()
	return ok && bound*w.unorm < thr-slack(thr)
}

// walkChunk answers one chunk: at most walkChunkUsers queried users of one
// cluster, walking the cluster's bound-sorted list together one segment at a
// time — max(k, B) positions first, walkSegment after that. Before
// each segment the users whose cut fires at its first position leave; the
// rest score the segment with one multiply and harvest it threshold-first,
// each stopping at its own cut. The segment comes packed from segs, shared
// with the cluster's other chunks. Once fewer than minSharedRows users remain (from the start under the
// DisableItemBlocking lesion), each finishes alone. The multiply sums every
// score in DotFrom's order, so no answer depends on the segments, the chunk
// or the thread count. Returns the list positions scored, the multiplied
// segments' overshoot included.
func (m *Maximus) walkChunk(q *walkCall, qs []int, segs *segCache, scr *walkScratch) (int64, error) {
	c := m.clusterOf[q.ids[qs[0]]]
	list, bounds := m.lists[c], m.bounds[c]
	scr.walkers = scr.walkers[:0]
	for _, qi := range qs {
		u := q.ids[qi]
		floor := math.Inf(-1)
		if q.floors != nil {
			floor = q.floors[qi]
		}
		scr.walkers = append(scr.walkers, walker{qi: qi, user: m.users.Row(u), unorm: m.userNorm[u], h: topk.NewSeeded(q.k, floor)})
	}
	active := scr.active[:0]
	for i := range scr.walkers {
		active = append(active, &scr.walkers[i])
	}
	var scanned int64
	pos, seg := 0, max(q.k, m.cfg.BlockSize)
	for si := 0; !m.cfg.DisableItemBlocking && pos < len(list); si++ {
		if err := mips.CtxErr(q.ctx); err != nil {
			return scanned, err
		}
		live := active[:0]
		for _, w := range active {
			if !w.cut(bounds[pos]) {
				live = append(live, w)
			}
		}
		if active = live; len(active) < minSharedRows {
			break
		}
		end := min(pos+seg, len(list))
		scores := scr.multiply(segs.packed(si, m.items, list[pos:end], scr), active)
		scanned += int64(len(active) * (end - pos))
		live = active[:0]
		for r, w := range active {
			if w.harvest(scores.Row(r), list[pos:end], bounds[pos:end]) {
				live = append(live, w)
			}
		}
		active, pos, seg = live, end, walkSegment
	}
	for _, w := range active {
		n, err := m.walkAlone(q, w, list, bounds, pos)
		scanned += n
		if err != nil {
			return scanned, err
		}
	}
	scr.active = active[:0]
	for i := range scr.walkers {
		w := &scr.walkers[i]
		q.out[w.qi] = w.h.Sorted()
	}
	return scanned, nil
}

// harvest offers w's scores for one list segment (ids, with their aligned
// bounds) to its heap threshold-first, and reports whether w walks on: false
// once its cut fires inside the segment. bounds is non-increasing and the
// user norm is not negative, so the cut, once it fires at a position, fires
// at every later one: after each threshold change, a binary search finds
// where it first fires, and blas.Scan passes over the scores below the
// threshold up to there. A score tying the threshold is left to Push, which
// breaks the tie by id.
func (w *walker) harvest(scores []float64, ids []int32, bounds []float64) bool {
	p := 0
	thr, ok := w.h.Threshold()
	for ; !ok && p < len(scores); p++ { // nothing prunes yet: every score is offered
		if w.h.Push(int(ids[p]), scores[p]) {
			thr, ok = w.h.Threshold()
		}
	}
	for p < len(scores) {
		cut := thr - slack(thr)
		stop := p + sort.Search(len(scores)-p, func(i int) bool { return bounds[p+i]*w.unorm < cut })
		for {
			if p += blas.Scan(scores[p:stop], thr, blas.SkipBelow); p == stop {
				return stop == len(scores)
			}
			pushed := w.h.Push(int(ids[p]), scores[p])
			p++
			if pushed {
				thr, _ = w.h.Threshold()
				break
			}
		}
	}
	return true
}

// walkAlone finishes w's walk from list position pos, one DotFrom per
// position, polling ctx every walkSegment positions. Returns
// the positions scored.
func (m *Maximus) walkAlone(q *walkCall, w *walker, list []int32, bounds []float64, pos int) (int64, error) {
	from := pos
	for ; pos < len(list); pos++ {
		if (pos-from)%walkSegment == 0 {
			if err := mips.CtxErr(q.ctx); err != nil {
				return int64(pos - from), err
			}
		}
		if w.cut(bounds[pos]) {
			break
		}
		id := int(list[pos])
		w.h.Push(id, blas.DotFrom(0, w.user, m.items.Row(id)))
	}
	return int64(pos - from), nil
}

// walkScratches and walkSegs recycle the walk's working memory across calls
// and solvers: each chunk's temporaries (*walkScratch) and each call's shared
// segments (*segCache). As with BMM's pools, a freshly built MAXIMUS — every
// OPTIMUS run builds one — then samples on memory an earlier one faulted in,
// as BMM's sample does, rather than paying the allocation in its measured time.
var walkScratches, walkSegs sync.Pool

// walkScratch holds one chunk walk's temporaries, recycled across chunks,
// calls and solvers through walkScratches.
type walkScratch struct {
	walkers []walker
	active  []*walker
	a, c    []float64   // backing of the segment multiply's A operand and product
	packed  blas.Packed // a segment another chunk is still packing
}

// multiply scores the active users against the packed segment with one
// GemmNTPacked; row r of the result holds active[r]'s scores.
func (scr *walkScratch) multiply(seg *blas.Packed, active []*walker) *mat.Matrix {
	a := view(&scr.a, len(active), len(active[0].user))
	for r, w := range active {
		copy(a.Row(r), w.user)
	}
	scores := view(&scr.c, len(active), seg.Rows())
	blas.GemmNTPacked(a, seg, scores, 1)
	return scores
}

// segCache is one cluster's list segments for one call, each gathered and
// packed by the first of the cluster's chunks to reach it and read by the
// rest. Memory is kept across clusters, calls and solvers through walkSegs.
type segCache struct {
	segs []*sharedSeg
}

// sharedSeg is one packed list segment and its state: segEmpty, then
// segPacking while one chunk packs it, then segReady.
type sharedSeg struct {
	state atomic.Int32
	p     blas.Packed
}

const (
	segEmpty int32 = iota
	segPacking
	segReady
)

// reset empties the first n segments for a new cluster. It must not run
// while a chunk reads them.
func (sc *segCache) reset(n int) {
	for len(sc.segs) < n {
		sc.segs = append(sc.segs, new(sharedSeg))
	}
	for _, s := range sc.segs[:n] {
		s.state.Store(segEmpty)
	}
}

// packed returns list segment si, whose item ids are ids, packed for the
// multiply. While another chunk is still packing the segment, it packs a
// private copy into scr rather than wait: chunks that walk in step would
// otherwise take turns.
func (sc *segCache) packed(si int, items *mat.Matrix, ids []int32, scr *walkScratch) *blas.Packed {
	s := sc.segs[si]
	if s.state.Load() == segReady {
		return &s.p
	}
	if s.state.CompareAndSwap(segEmpty, segPacking) {
		blas.PackRows(&s.p, items, ids, minSharedRows)
		s.state.Store(segReady)
		return &s.p
	}
	blas.PackRows(&scr.packed, items, ids, minSharedRows)
	return &scr.packed
}

// view returns a rows×cols matrix over *buf, growing the buffer when it is
// too small.
func view(buf *[]float64, rows, cols int) *mat.Matrix {
	if cap(*buf) < rows*cols {
		*buf = make([]float64, rows*cols)
	}
	v, err := mat.FromSlice(rows, cols, (*buf)[:rows*cols])
	if err != nil {
		panic(err) // unreachable: the slice has exactly rows*cols elements
	}
	return v
}

// QueryAll implements mips.Solver.
func (m *Maximus) QueryAll(k int) ([][]topk.Entry, error) {
	if m.users == nil {
		return nil, fmt.Errorf("core: MAXIMUS QueryAll before Build")
	}
	return m.Query(mips.AllUserIDs(m.users.Rows()), k)
}

// MeanItemsVisited runs an instrumented QueryAll and returns w̄, the average
// number of list positions scored per user (Equation 4's key quantity), the
// multiplied segments' overshoot past each user's cut included.
func (m *Maximus) MeanItemsVisited(k int) (float64, error) {
	if m.users == nil {
		return 0, fmt.Errorf("core: MAXIMUS MeanItemsVisited before Build")
	}
	_, st, err := m.QueryStats(mips.AllUserIDs(m.users.Rows()), k)
	if err != nil {
		return 0, err
	}
	return float64(st.ItemsVisited) / float64(m.users.Rows()), nil
}
