package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
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
// results with those settings; they are the defaults here.
type MaximusConfig struct {
	// Clusters is |C|, the number of user clusters.
	Clusters int
	// KMeansIters is i, the number of Lloyd iterations.
	KMeansIters int
	// BlockSize is B, the per-cluster item-blocking factor: the first B list
	// entries are scored for all cluster users with one blocked matrix
	// multiply (§III-D). Zero selects the adaptive default
	// min(4096, |I|/4): the paper's fixed B = 4096 equals |I|/4.3 on its
	// smallest item set (Netflix), and a block covering most of a smaller
	// item set would erase the pruning benefit (the walk would degenerate
	// into plain BMM). Set DisableItemBlocking for the Fig 8 lesion.
	BlockSize int
	// DisableItemBlocking turns off the shared BMM prefix (lesion study).
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

// DefaultMaximusConfig returns the paper's published settings (§III-D);
// BlockSize 0 means the adaptive min(4096, |I|/8) rule, and Threads 0 means
// "follow the package-wide parallel.Threads() default", resolved by
// NewMaximus at construction.
func DefaultMaximusConfig() MaximusConfig {
	return MaximusConfig{Clusters: 8, KMeansIters: 3, BlockSize: 0}
}

// maxBlockSize is the paper's published B.
const maxBlockSize = 4096

// MaximusTimings is the stage breakdown Fig 8 reports: clustering, index
// construction (bounds + sorting), and cost estimation (the sampled walks
// that size each cluster's shared block).
type MaximusTimings struct {
	Clustering     time.Duration
	Construction   time.Duration
	CostEstimation time.Duration
}

// MaximusQueryStats instruments one Query call.
type MaximusQueryStats struct {
	// Traversal is the wall-clock time of the index walk (Fig 8's dominant
	// stage).
	Traversal time.Duration
	// BlockTime is the portion of Traversal spent in the shared blocked
	// matrix multiplies.
	BlockTime time.Duration
	// ItemsVisited is the total number of list positions examined, blocked
	// prefix included; ItemsVisited/users = w̄ from the runtime analysis
	// (Equation 4).
	ItemsVisited int64
}

// Maximus is the paper's index (§III, Algorithm 1): users are clustered,
// each cluster gets an item list sorted by the Equation 3 upper bound, and a
// user's exact top-K walk early-terminates once the bound falls below the
// current K-th score. The first BlockSize positions of each list are scored
// for all of a cluster's users at once with a blocked matrix multiply.
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
	blocks []*mat.Matrix
	// memberVecs caches each cluster's member vectors in member order so
	// the shared block multiply in QueryAll needs no per-call row copies.
	memberVecs []*mat.Matrix

	// scanned accumulates ItemsVisited across queries (mips.ScanCounter):
	// list positions scored, blocked prefix included.
	scanned atomic.Int64

	// gen is the mips.ItemMutator mutation stamp (see dynamic.go).
	gen uint64

	// estFloors, when set via SetEstimationFloors (mips.FloorAwareEstimator),
	// seeds the next estimateBlocks' sampled walks: per-user lower bounds on
	// the top score, indexed by user row. A performance hint only — it never
	// touches the query path.
	estFloors []float64

	timings MaximusTimings
}

// NewMaximus returns an unbuilt MAXIMUS index. Zero-valued fields fall back
// to the paper's defaults (B=4096, |C|=8, i=3).
func NewMaximus(cfg MaximusConfig) *Maximus {
	def := DefaultMaximusConfig()
	if cfg.Clusters <= 0 {
		cfg.Clusters = def.Clusters
	}
	if cfg.KMeansIters <= 0 {
		cfg.KMeansIters = def.KMeansIters
	}
	if cfg.BlockSize < 0 {
		cfg.BlockSize = 0
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
// block sizes are fixed at Build, so changing threads never changes results.
func (m *Maximus) SetThreads(n int) { m.cfg.Threads = parallel.Resolve(n) }

// Batches implements mips.Solver: the shared block multiply amortizes work
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

// BuildTime returns total Build cost (clustering + construction + cost
// estimation).
func (m *Maximus) BuildTime() time.Duration {
	return m.timings.Clustering + m.timings.Construction + m.timings.CostEstimation
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

	// Stage 3: cost estimation — sample walk lengths and size the shared
	// blocks (§III-D item blocking).
	t2 := time.Now()
	m.estimateBlocks()
	m.timings.CostEstimation = time.Since(t2)
	m.scanned.Store(0)
	m.gen = 0
	return nil
}

// ScanStats implements mips.ScanCounter: list positions scored across
// queries, shared blocked prefixes included (they are GEMM-scored work).
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
	m.blocks = make([]*mat.Matrix, nClusters)
	m.memberVecs = make([]*mat.Matrix, nClusters)
	parallel.ForThreads(m.cfg.Threads, nClusters, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			bound := make([]float64, nItems)
			for i := 0; i < nItems; i++ {
				bound[i] = CBound(dots.At(c, i), centroidNorm[c], itemNorm[i], m.thetaB[c])
			}
			ids := make([]int32, nItems)
			for i := range ids {
				ids[i] = int32(i)
			}
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

// sortClusterList orders item ids by descending Equation 3 bound, breaking
// ties toward the lower id for determinism.
func sortClusterList(ids []int32, bound []float64) {
	sort.Slice(ids, func(a, b int) bool {
		if bound[ids[a]] != bound[ids[b]] {
			return bound[ids[a]] > bound[ids[b]]
		}
		return ids[a] < ids[b]
	})
}

// SetEstimationFloors implements mips.FloorAwareEstimator: floors[u] is a
// lower bound on user u's top score that the next Build's estimateBlocks
// walks seed their running best with. A walk that starts at the floor
// terminates where the served queries will actually terminate — under a high
// floor, far earlier — so the shared block is sized for the floored regime
// instead of the cold one. The floors persist until replaced; a length that
// does not match the Build's user count is ignored (the hint describes a
// different corpus).
func (m *Maximus) SetEstimationFloors(floors []float64) {
	m.estFloors = append(m.estFloors[:0], floors...)
}

// blockSampleUsers is how many members per cluster the cost-estimation stage
// walks when sizing the shared block.
const blockSampleUsers = 16

// estimateBlocks is the cost-estimation stage of Build: it sizes each
// cluster's shared block so blocked work is almost always useful work.
//
// The paper fixes B = 4096 for testbed item counts of 17k–1M, observing that
// when a user's walk ends before position B the blocked prefix is wasted
// work (§III-D). At repo scale the item counts — and therefore the walk
// lengths — vary by orders of magnitude across models, so a fixed B is
// wrong somewhere for every choice. Instead, the index walks a small sample
// of each cluster's members without blocking, measures the mean termination
// position w̄_c, and sets B_c = min(4096, w̄_c/2): half the average walk is
// scored with one matrix multiply, and the early-termination logic still
// cuts the tail. Clusters whose walks are too short to amortize a GEMM get
// no block at all. An explicit MaximusConfig.BlockSize bypasses the
// sampling.
func (m *Maximus) estimateBlocks() {
	if m.cfg.DisableItemBlocking {
		return
	}
	nClusters := m.centroids.Rows()
	nItems := m.items.Rows()
	// Floor-aware estimation: when the caller supplied per-user floors (the
	// sharded executor replays each shard's observed floors before a rebuild),
	// the sampled walks start from them, shrinking the estimated walk — and
	// therefore the shared block — toward what floored service really scans.
	floors := m.estFloors
	if len(floors) != m.users.Rows() {
		floors = nil
	}
	parallel.ForThreads(m.cfg.Threads, nClusters, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if len(m.members[c]) == 0 {
				continue
			}
			bl := m.cfg.BlockSize
			if bl <= 0 {
				step := 1
				if len(m.members[c]) > blockSampleUsers {
					step = len(m.members[c]) / blockSampleUsers
				}
				var visited, sampled int
				for i := 0; i < len(m.members[c]); i += step {
					u := m.members[c][i]
					seed := math.Inf(-1)
					if floors != nil {
						seed = floors[u]
					}
					visited += m.walkLength(u, c, seed)
					sampled++
				}
				bl = visited / (2 * sampled)
				if bl > maxBlockSize {
					bl = maxBlockSize
				}
				const minBlock = 8 // below this a GEMM cannot beat plain dots
				if bl < minBlock {
					continue
				}
			}
			if bl > nItems {
				bl = nItems
			}
			sel := make([]int, bl)
			for p := 0; p < bl; p++ {
				sel[p] = int(m.lists[c][p])
			}
			m.blocks[c] = m.items.SelectRows(sel)
			m.memberVecs[c] = m.users.SelectRows(m.members[c])
		}
	})
}

// walkLength runs the unblocked K=1 walk for user u in cluster c and returns
// the number of list positions visited before early termination. floor seeds
// the running best (-Inf for the cold walk): the global top score is >= any
// top-k floor, so a k-th-score floor is a valid seed for the K=1 walk too.
func (m *Maximus) walkLength(u, c int, floor float64) int {
	list := m.lists[c]
	bounds := m.bounds[c]
	urow := m.users.Row(u)
	unorm := m.userNorm[u]
	best := floor
	for pos := range list {
		if pos > 0 && bounds[pos]*unorm < best-slack(best) {
			return pos
		}
		if s := blas.Dot(urow, m.items.Row(int(list[pos]))); s > best {
			best = s
		}
	}
	return len(list)
}

// BlockSizes returns the per-cluster shared-block lengths chosen by the
// cost-estimation stage (0 = that cluster walks unblocked). Only meaningful
// after Build.
func (m *Maximus) BlockSizes() []int {
	out := make([]int, len(m.blocks))
	for c, b := range m.blocks {
		if b != nil {
			out[c] = b.Rows()
		}
	}
	return out
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

// Query implements mips.Solver: QueryIndex from Algorithm 1, with the §III-D
// shared block multiply covering the first BlockSize list positions.
func (m *Maximus) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	res, _, err := m.QueryStats(userIDs, k)
	return res, err
}

// QueryStats is Query with traversal instrumentation.
func (m *Maximus) QueryStats(userIDs []int, k int) ([][]topk.Entry, MaximusQueryStats, error) {
	return m.queryStats(nil, userIDs, k, nil, nil)
}

// QueryCtx implements mips.Solver. A floor seeds each user's heap, so the
// sorted-bound walk terminates as soon as the Equation 3 bound trails it —
// before the heap fills, often right after the shared blocked prefix (whose
// pushes the floor filters but whose GEMM still runs: block sizes are fixed
// at Build; the construction-side answer is SetEstimationFloors). A board
// seeds the heap the same way and is re-polled every floorPollInterval walk
// positions, so a bound published by a concurrently finishing shard ends
// the walk early. ctx is polled at every cluster boundary and at the same
// cadence as the board.
func (m *Maximus) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	res, _, err := m.queryStats(ctx, userIDs, k, opts.Floors, opts.Board)
	return res, err
}

func (m *Maximus) queryStats(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, MaximusQueryStats, error) {
	var st MaximusQueryStats
	if m.lists == nil {
		return nil, st, fmt.Errorf("core: MAXIMUS Query before Build")
	}
	if err := mips.ValidateK(k, m.items.Rows()); err != nil {
		return nil, st, err
	}
	start := time.Now()
	// Group queried users by cluster so the block multiply is shared.
	nClusters := m.centroids.Rows()
	byCluster := make([][]int, nClusters) // positions into userIDs
	for qi, u := range userIDs {
		if u < 0 || u >= m.users.Rows() {
			return nil, st, fmt.Errorf("core: user id %d out of range [0,%d)", u, m.users.Rows())
		}
		c := m.clusterOf[u]
		byCluster[c] = append(byCluster[c], qi)
	}
	out := make([][]topk.Entry, len(userIDs))
	visited := make([]int64, nClusters)
	var blockNanos int64
	for c := 0; c < nClusters; c++ {
		if len(byCluster[c]) == 0 {
			continue
		}
		// Cluster boundary: the natural cancellation seam — each cluster is
		// one shared-block GEMM plus its members' walks.
		if err := mips.CtxErr(ctx); err != nil {
			return nil, st, err
		}
		bt, v := m.queryCluster(ctx, c, byCluster[c], userIDs, k, floors, board, out)
		blockNanos += bt
		visited[c] = v
	}
	// A cancellation that landed mid-cluster left truncated walks; discard.
	if err := mips.CtxErr(ctx); err != nil {
		return nil, st, err
	}
	st.Traversal = time.Since(start)
	st.BlockTime = time.Duration(blockNanos)
	for _, v := range visited {
		st.ItemsVisited += v
	}
	m.scanned.Add(st.ItemsVisited)
	return out, st, nil
}

// floorPollInterval is how many walk positions MAXIMUS scores between
// re-polls of a live floor board cell: frequent enough that a raised floor
// cuts the walk promptly, sparse enough that the atomic load stays invisible
// next to the dot products.
const floorPollInterval = 128

// queryCluster answers all queried users of one cluster; floors (static) or
// board (live), when non-nil, are aligned with userIDs. Returns block-GEMM
// nanoseconds and total list positions visited.
func (m *Maximus) queryCluster(ctx context.Context, c int, queryPos []int, userIDs []int, k int, floors []float64, board *topk.FloorBoard, out [][]topk.Entry) (int64, int64) {
	list := m.lists[c]
	bounds := m.bounds[c]
	nItems := len(list)
	var blockNanos, visited int64

	blockLen := 0
	var scores *mat.Matrix
	if m.blocks[c] != nil {
		blockLen = m.blocks[c].Rows()
		// Shared prefix: one GemmNT scores every queried user of the cluster
		// against the first blockLen list entries. The full-membership case
		// (QueryAll) reuses the cluster-user matrix cached at Build; subset
		// queries gather their rows first.
		qUsers := m.memberVecs[c]
		if !m.coversMembers(c, queryPos, userIDs) {
			qUsers = mat.New(len(queryPos), m.users.Cols())
			for r, qi := range queryPos {
				copy(qUsers.Row(r), m.users.Row(userIDs[qi]))
			}
		}
		scores = mat.New(len(queryPos), blockLen)
		t0 := time.Now()
		blas.GemmNTParallel(qUsers, m.blocks[c], scores, m.cfg.Threads)
		blockNanos = time.Since(t0).Nanoseconds()
	}

	perUser := make([]int64, len(queryPos))
	parallel.ForThreads(m.cfg.Threads, len(queryPos), queryGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			// Cancelled: abandon the chunk; the truncated rows are discarded
			// by queryStats's post-loop ctx check.
			if ctx != nil && ctx.Err() != nil {
				return
			}
			qi := queryPos[r]
			u := userIDs[qi]
			urow := m.users.Row(u)
			unorm := m.userNorm[u]
			floor := math.Inf(-1)
			if floors != nil {
				floor = floors[qi]
			} else if board != nil {
				floor = board.Floor(qi)
			}
			h := topk.NewSeeded(k, floor)
			start := 0
			if blockLen > 0 {
				// Harvest the blocked prefix.
				row := scores.Row(r)
				for pos := 0; pos < blockLen; pos++ {
					h.Push(int(list[pos]), row[pos])
				}
				start = blockLen
				perUser[r] = int64(blockLen)
			} else {
				// Algorithm 1: seed the heap with the first K list entries.
				seed := k
				if seed > nItems {
					seed = nItems
				}
				for pos := 0; pos < seed; pos++ {
					id := int(list[pos])
					h.Push(id, blas.Dot(urow, m.items.Row(id)))
				}
				start = seed
				perUser[r] = int64(seed)
			}
			// Walk the remainder; terminate when the sorted bound proves no
			// later entry can displace the heap minimum (or beat the floor:
			// a seeded heap reports its floor before it fills). Under a live
			// board the cell is re-polled every floorPollInterval positions.
			poll := 0
			for pos := start; pos < nItems; pos++ {
				if board != nil || ctx != nil {
					if poll == 0 {
						if board != nil {
							h.RaiseFloor(board.Floor(qi))
						}
						if ctx != nil && ctx.Err() != nil {
							break
						}
						poll = floorPollInterval
					}
					poll--
				}
				if thr, ok := h.Threshold(); ok && bounds[pos]*unorm < thr-slack(thr) {
					break
				}
				perUser[r]++
				id := int(list[pos])
				h.Push(id, blas.Dot(urow, m.items.Row(id)))
			}
			out[qi] = h.Sorted()
		}
	})
	for _, v := range perUser {
		visited += v
	}
	return blockNanos, visited
}

// coversMembers reports whether the queried users of cluster c are exactly
// the cluster's membership in member order — the QueryAll fast path.
func (m *Maximus) coversMembers(c int, queryPos []int, userIDs []int) bool {
	members := m.members[c]
	if len(queryPos) != len(members) {
		return false
	}
	for i, qi := range queryPos {
		if userIDs[qi] != members[i] {
			return false
		}
	}
	return true
}

// QueryAll implements mips.Solver.
func (m *Maximus) QueryAll(k int) ([][]topk.Entry, error) {
	if m.users == nil {
		return nil, fmt.Errorf("core: MAXIMUS QueryAll before Build")
	}
	return m.Query(mips.AllUserIDs(m.users.Rows()), k)
}

// MeanItemsVisited runs an instrumented QueryAll and returns w̄, the average
// number of list positions visited per user (Equation 4's key quantity).
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
