// Package conetree implements the cone-tree exact MIPS index of Ram & Gray
// (KDD 2012), the strongest of the tree-based methods the paper's related
// work discusses (§VI): item vectors are recursively partitioned into nodes
// summarized by a center direction, a cone half-angle, and norm extrema; a
// branch-and-bound search descends the tree pruning every node whose bound
// cannot beat the current K-th score.
//
// The paper cites Teflioudi et al.'s finding that cone trees lose to LEMP on
// recommendation workloads; the ablation-conetree experiment reproduces that
// comparison. The index is a genuinely exact solver in the baseline tier
// (see internal/mips): it implements mips.Solver and mips.ScanCounter, and
// nothing else — no mutation, no snapshots. A composite (internal/shard)
// makes it mutable by rebuilding the shards a mutation touches.
//
// Node bound. For a user u and a node with unit center direction c, cone
// half-angle ω = max_i angle(c, i), and item norms in [minNorm, maxNorm]:
// every member item i satisfies angle(u, i) ≥ θuc − ω, hence
//
//	uᵀi = ‖u‖·‖i‖·cos(angle(u,i)) ≤ ‖u‖·‖i‖·cos(max(0, θuc − ω)).
//
// When the cosine is non-negative the right side is maximized at maxNorm;
// when it is negative (the whole cone points away from u) it is maximized at
// minNorm. Both cases are property-tested as true upper bounds.
package conetree

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"optimus/internal/blas"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/topk"
)

// Config controls tree construction.
type Config struct {
	// LeafSize caps the number of items in a leaf (default 32).
	LeafSize int
	// Threads parallelizes Query/QueryAll across users.
	Threads int
}

// DefaultConfig returns the defaults documented on Config.
func DefaultConfig() Config { return Config{LeafSize: 32, Threads: 1} }

type node struct {
	// center is the unit mean direction of the node's items.
	center []float64
	// omega is the cone half-angle: max angle(center, item).
	omega float64
	// minNorm, maxNorm bound the member item norms.
	minNorm, maxNorm float64
	// lo, hi delimit the node's items in the reordered arrays.
	lo, hi int
	// left, right are nil for leaves.
	left, right *node
}

// Index is a built cone tree. Read-only after Build; safe for concurrent
// queries.
type Index struct {
	cfg   Config
	users *mat.Matrix

	// Items permuted so every node's members are contiguous.
	reordered *mat.Matrix
	ids       []int // reordered position -> original item id
	dirs      *mat.Matrix
	root      *node

	// scanned counts leaf-item evaluations across queries
	// (mips.ScanCounter); items in pruned subtrees are never scanned.
	scanned atomic.Int64

	buildTime time.Duration
}

// New returns an unbuilt cone tree. Zero-valued fields fall back to
// defaults.
func New(cfg Config) *Index {
	def := DefaultConfig()
	if cfg.LeafSize <= 0 {
		cfg.LeafSize = def.LeafSize
	}
	cfg.Threads = parallel.Resolve(cfg.Threads)
	return &Index{cfg: cfg}
}

// SetThreads implements mips.ThreadSetter: it adjusts query parallelism on
// the built index (n <= 0 selects the package-wide default).
func (x *Index) SetThreads(n int) { x.cfg.Threads = parallel.Resolve(n) }

// Name implements mips.Solver.
func (x *Index) Name() string { return "ConeTree" }

// Batches implements mips.Solver; the tree answers one user at a time.
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

// BuildTime returns the wall-clock cost of the last Build.
func (x *Index) BuildTime() time.Duration { return x.buildTime }

// Depth returns the tree depth (1 for a single leaf). Diagnostic.
func (x *Index) Depth() int { return depth(x.root) }

func depth(n *node) int {
	if n == nil {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Build implements mips.Solver.
func (x *Index) Build(users, items *mat.Matrix) error {
	start := time.Now()
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	x.users = users
	n := items.Rows()
	x.ids = make([]int, n)
	for i := range x.ids {
		x.ids[i] = i
	}
	x.reordered = items.Clone()
	// Unit directions (zero vectors keep a canonical direction so angles
	// stay defined; their dot products are 0 everywhere regardless).
	x.dirs = items.Clone()
	for i := 0; i < n; i++ {
		if mat.Normalize(x.dirs.Row(i)) == 0 {
			x.dirs.Row(i)[0] = 1
		}
	}
	x.root = x.build(0, n)
	x.scanned.Store(0)
	x.buildTime = time.Since(start)
	return nil
}

// ScanStats implements mips.ScanCounter: inner products computed at visited
// leaves.
func (x *Index) ScanStats() mips.ScanStats { return mips.ScanStats{Scanned: x.scanned.Load()} }

// ResetScanStats implements mips.ScanCounter.
func (x *Index) ResetScanStats() { x.scanned.Store(0) }

// build constructs the subtree over reordered positions [lo, hi).
func (x *Index) build(lo, hi int) *node {
	n := x.summarize(lo, hi)
	if hi-lo <= x.cfg.LeafSize {
		return n
	}
	mid := x.split(lo, hi)
	if mid == lo || mid == hi {
		// Degenerate split (e.g. identical directions): halve positionally
		// so construction always terminates.
		mid = lo + (hi-lo)/2
	}
	n.left = x.build(lo, mid)
	n.right = x.build(mid, hi)
	return n
}

// summarize computes a node's center, cone angle, and norm extrema.
func (x *Index) summarize(lo, hi int) *node {
	f := x.reordered.Cols()
	n := &node{lo: lo, hi: hi, center: make([]float64, f), minNorm: math.Inf(1)}
	for s := lo; s < hi; s++ {
		d := x.dirs.Row(s)
		for j, v := range d {
			n.center[j] += v
		}
		norm := mat.Norm(x.reordered.Row(s))
		if norm < n.minNorm {
			n.minNorm = norm
		}
		if norm > n.maxNorm {
			n.maxNorm = norm
		}
	}
	if mat.Normalize(n.center) == 0 {
		n.center[0] = 1
	}
	for s := lo; s < hi; s++ {
		if a := mat.Angle(n.center, x.dirs.Row(s)); a > n.omega {
			n.omega = a
		}
	}
	return n
}

// split partitions [lo, hi) around two angularly distant pivots (the
// standard two-pivot ball-tree rule, applied to directions): find the
// direction a farthest from the first item, then b farthest from a, and
// route every item to its angularly closer pivot. Returns the boundary.
func (x *Index) split(lo, hi int) int {
	farthestFrom := func(s int) int {
		best, bestA := s, -1.0
		ref := x.dirs.Row(s)
		for t := lo; t < hi; t++ {
			if a := mat.Angle(ref, x.dirs.Row(t)); a > bestA {
				best, bestA = t, a
			}
		}
		return best
	}
	ai := farthestFrom(lo)
	bi := farthestFrom(ai)
	a := append([]float64(nil), x.dirs.Row(ai)...)
	b := append([]float64(nil), x.dirs.Row(bi)...)

	left := lo
	right := hi - 1
	for left <= right {
		d := x.dirs.Row(left)
		if mat.Angle(d, a) <= mat.Angle(d, b) {
			left++
		} else {
			x.swap(left, right)
			right--
		}
	}
	return left
}

func (x *Index) swap(s, t int) {
	x.ids[s], x.ids[t] = x.ids[t], x.ids[s]
	rs, rt := x.reordered.Row(s), x.reordered.Row(t)
	for j := range rs {
		rs[j], rt[j] = rt[j], rs[j]
	}
	ds, dt := x.dirs.Row(s), x.dirs.Row(t)
	for j := range ds {
		ds[j], dt[j] = dt[j], ds[j]
	}
}

// bound returns the node's upper bound on uᵀi for any member item i.
func bound(n *node, u []float64, unorm float64) float64 {
	if unorm == 0 {
		return 0
	}
	theta := mat.Angle(u, n.center)
	gap := theta - n.omega
	if gap <= 0 {
		return n.maxNorm * unorm
	}
	c := math.Cos(gap)
	if c >= 0 {
		return n.maxNorm * unorm * c
	}
	return n.minNorm * unorm * c
}

// Query implements mips.Solver.
func (x *Index) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	return x.query(nil, userIDs, k, nil, nil)
}

// QueryCtx implements mips.Solver. A floor seeds each user's heap, so the
// branch-and-bound descent compares node bounds against it from the root
// down — a whole subtree whose bound trails the floor is pruned before a
// single inner product. A board is read once, when the user's descent
// starts, and seeds the heap the same way (static seeding, the Ram & Gray
// bound); a floor a concurrent shard raises later is not polled, which the
// QueryCtx contract allows. ctx is polled once per user and at every
// internal node.
func (x *Index) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	return x.query(ctx, userIDs, k, opts.Floors, opts.Board)
}

func (x *Index) query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error) {
	if x.root == nil {
		return nil, fmt.Errorf("conetree: Query before Build")
	}
	if err := mips.ValidateK(k, x.reordered.Rows()); err != nil {
		return nil, err
	}
	out := make([][]topk.Entry, len(userIDs))
	run := func(lo, hi int) error {
		var scanned int64
		for qi := lo; qi < hi; qi++ {
			if err := mips.CtxErr(ctx); err != nil {
				return err
			}
			u := userIDs[qi]
			if u < 0 || u >= x.users.Rows() {
				return fmt.Errorf("conetree: user id %d out of range [0,%d)", u, x.users.Rows())
			}
			urow := x.users.Row(u)
			floor := math.Inf(-1)
			if floors != nil {
				floor = floors[qi]
			} else if board != nil {
				floor = board.Floor(qi)
			}
			h := topk.NewSeeded(k, floor)
			x.search(ctx, x.root, urow, mat.Norm(urow), h, &scanned)
			out[qi] = h.Sorted()
		}
		x.scanned.Add(scanned)
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
		return nil, fmt.Errorf("conetree: QueryAll before Build")
	}
	return x.Query(mips.AllUserIDs(x.users.Rows()), k)
}

// search is the branch-and-bound descent: children are visited best-bound
// first and pruned against the heap threshold (with the repository's
// floating-point guard band). A seeded heap reports its floor as the
// threshold before it fills, so a floored query prunes from the first
// descent. scanned accumulates leaf-item evaluations.
func (x *Index) search(ctx context.Context, n *node, u []float64, unorm float64, h *topk.Heap, scanned *int64) {
	if n.left == nil {
		*scanned += int64(n.hi - n.lo)
		for s := n.lo; s < n.hi; s++ {
			h.Push(x.ids[s], blas.Dot(u, x.reordered.Row(s)))
		}
		return
	}
	// Cancelled: unwind the descent; the partial heap is discarded by the
	// caller's per-user ctx poll (or the fan-out's final check).
	if ctx != nil && ctx.Err() != nil {
		return
	}
	bl := bound(n.left, u, unorm)
	br := bound(n.right, u, unorm)
	first, second := n.left, n.right
	bFirst, bSecond := bl, br
	if br > bl {
		first, second = n.right, n.left
		bFirst, bSecond = br, bl
	}
	if thr, ok := h.Threshold(); !ok || bFirst >= thr-slack(thr) {
		x.search(ctx, first, u, unorm, h, scanned)
	}
	if thr, ok := h.Threshold(); !ok || bSecond >= thr-slack(thr) {
		x.search(ctx, second, u, unorm, h, scanned)
	}
}

func slack(thr float64) float64 {
	return 1e-9 * (1 + math.Abs(thr))
}

// NodeBoundForTest exposes the bound of the node containing sorted position
// s at every tree level, with the true scores, for the bound-validity
// property test.
func (x *Index) NodeBoundForTest(u []float64, s int) (bounds []float64, truth float64) {
	unorm := mat.Norm(u)
	truth = blas.Dot(u, x.reordered.Row(s))
	n := x.root
	for n != nil {
		bounds = append(bounds, bound(n, u, unorm))
		if n.left == nil {
			break
		}
		if s < n.left.hi {
			n = n.left
		} else {
			n = n.right
		}
	}
	return bounds, truth
}

// Leaves returns the number of leaf nodes. Diagnostic.
func (x *Index) Leaves() int { return leaves(x.root) }

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.left == nil {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

// queryGrain is the per-user chunk size handed to the shared parallel
// worker pool (internal/parallel): branch-and-bound descent costs vary
// per user, so chunks stay small enough to load-balance — and to spread a
// served batch of a few dozen users over every thread.
const queryGrain = 8
