// Package fexipro re-implements the FEXIPRO index of Li et al. (SIGMOD 2017),
// the second state-of-the-art exact MIPS baseline the paper benchmarks
// (§II-C, §VI). FEXIPRO is a point-query index: each user's top-K is answered
// independently by walking the items in descending-norm order and discarding
// candidates with a cascade of cheap upper bounds, cheapest first:
//
//  1. Length bound: u·i ≤ ‖u‖·‖i‖; since items are norm-sorted the walk
//     terminates outright once this fails.
//  2. Integer bound (I): vectors are quantized to int32; the quantized dot
//     product plus exact rounding-error norms gives a provable upper bound
//     computed in integer arithmetic.
//  3. SVD partial bound (S): users and items are rotated into the eigenbasis
//     of the item Gram matrix, concentrating energy in leading coordinates;
//     a partial dot over the leading h coordinates plus a Cauchy–Schwarz
//     bound on the tail usually decides the candidate.
//  4. Reduction bound (R, SIR variant only): items are shifted coordinate-
//     wise to be non-negative, so the tail is additionally bounded by
//     (max positive user coordinate) × (item tail sum) — a monotonicity
//     bound that is sometimes tighter than Cauchy–Schwarz.
//
// Candidates surviving all bounds get an exact score by completing the
// partial dot in the rotated space (the rotation is orthogonal, so rotated
// dots equal original dots). The two configurations benchmarked in the paper
// are FEXIPRO-SI (bounds 1–3) and FEXIPRO-SIR (bounds 1–4).
//
// FEXIPRO is a baseline-tier solver (see internal/mips): it implements
// mips.Solver, and mips.Persister so its eigendecomposition survives a
// restore, but neither mutation contract. Its rotation, quantization scales
// and reduction shifts are all whole-corpus artifacts, so it has no cheap
// patch; a composite (internal/shard) makes it mutable by rebuilding the
// shards a mutation touches, users included.
package fexipro

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"optimus/internal/blas"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/svd"
	"optimus/internal/topk"
)

// Variant selects the pruning cascade.
type Variant int

// FEXIPRO variants from the paper's evaluation.
const (
	SI  Variant = iota // SVD + integer pruning
	SIR                // SVD + integer + reduction pruning
)

// String returns the variant name used in the paper.
func (v Variant) String() string {
	if v == SIR {
		return "FEXIPRO-SIR"
	}
	return "FEXIPRO-SI"
}

// Config controls index construction.
type Config struct {
	// Variant selects SI (default) or SIR.
	Variant Variant
	// EnergyFraction picks the partial-dot split h: the smallest prefix of
	// eigen-directions whose eigenvalues cover this fraction of total
	// spectrum energy. Default 0.7, the regime FEXIPRO's own evaluation
	// uses.
	EnergyFraction float64
	// QuantLevels is the integer quantization range: coordinates map to
	// [-QuantLevels, QuantLevels]. Default 2048.
	QuantLevels int
	// Threads parallelizes Query/QueryAll across users.
	Threads int
}

// DefaultConfig mirrors the tuning used for the paper's benchmarks.
func DefaultConfig() Config {
	return Config{Variant: SI, EnergyFraction: 0.7, QuantLevels: 2048, Threads: 1}
}

// Index is a built FEXIPRO index, read-only after Build and safe for
// concurrent queries.
type Index struct {
	cfg Config

	f int // latent factors
	h int // partial-dot split

	// Retained Build inputs and rotation, which Save writes.
	users, items *mat.Matrix
	eig          *svd.Eigen

	// Items in descending-norm order.
	ids      []int       // sorted position -> original item id
	norms    []float64   // ‖i‖, non-increasing
	tItems   *mat.Matrix // rotated items, sorted order
	itemTail []float64   // ‖ti[h:]‖ per sorted item
	qItems   []int32     // quantized rotated items, one n×f slab
	itemErr  []float64   // ‖ti - qi/si‖ per sorted item
	scaleI   float64

	// Reduction (SIR) state.
	shift    []float64 // per-coordinate shift making item tails non-negative
	tailSums []float64 // Σ_{j>=h} (ti[j]+shift[j]) per sorted item

	// Users, rotated and quantized at Build (FEXIPRO preprocesses the whole
	// query matrix in its batch setting).
	tUsers   *mat.Matrix
	userNorm []float64
	qUsers   []int32
	userErr  []float64 // ‖tu - qu/su‖
	qUNorm   []float64 // ‖qu/su‖, the norm the integer bound needs
	scaleU   float64
	uTailC   []float64 // Σ_{j>=h} tu[j]·shift[j] per user (SIR)
	uMaxPos  []float64 // max(0, max_{j>=h} tu[j]) per user (SIR)

	buildTime time.Duration
}

// New returns an unbuilt FEXIPRO index. Zero-valued fields fall back to
// DefaultConfig values.
func New(cfg Config) *Index {
	def := DefaultConfig()
	if cfg.EnergyFraction <= 0 || cfg.EnergyFraction > 1 {
		cfg.EnergyFraction = def.EnergyFraction
	}
	if cfg.QuantLevels <= 0 {
		cfg.QuantLevels = def.QuantLevels
	}
	cfg.Threads = parallel.Resolve(cfg.Threads)
	return &Index{cfg: cfg}
}

// SetThreads implements mips.ThreadSetter: it adjusts query parallelism on
// the built index (n <= 0 selects the package-wide default).
func (x *Index) SetThreads(n int) { x.cfg.Threads = parallel.Resolve(n) }

// Name implements mips.Solver.
func (x *Index) Name() string { return x.cfg.Variant.String() }

// Batches implements mips.Solver; FEXIPRO is a point-query index — the
// property that lets OPTIMUS apply its incremental t-test (§IV-A).
func (x *Index) Batches() bool { return false }

// NumUsers implements mips.Sized.
func (x *Index) NumUsers() int {
	if x.tUsers == nil {
		return 0
	}
	return x.tUsers.Rows()
}

// NumItems implements mips.Sized.
func (x *Index) NumItems() int { return len(x.ids) }

// BuildTime returns the wall-clock cost of the last Build call.
func (x *Index) BuildTime() time.Duration { return x.buildTime }

// SplitH returns the partial-dot split chosen at Build.
func (x *Index) SplitH() int { return x.h }

// Build implements mips.Solver.
func (x *Index) Build(users, items *mat.Matrix) error {
	start := time.Now()
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	f := items.Cols()

	// Rotation from the item Gram spectrum. Decompose is the only fallible
	// step below; no receiver state may be written before it succeeds, so a
	// failed Build leaves the previous index answering.
	eig, err := svd.Decompose(svd.Gram(items))
	if err != nil {
		return fmt.Errorf("fexipro: eigendecomposition: %w", err)
	}
	x.f = f
	x.users, x.items = users, items
	x.eig = eig
	var total float64
	for _, v := range eig.Values {
		if v > 0 {
			total += v
		}
	}
	x.h = f
	if total > 0 {
		var cum float64
		for j, v := range eig.Values {
			if v > 0 {
				cum += v
			}
			if cum >= x.cfg.EnergyFraction*total {
				x.h = j + 1
				break
			}
		}
	}
	if x.h < 1 {
		x.h = 1
	}
	if x.h > f {
		x.h = f
	}

	// Sort items by norm descending (ties by id for determinism).
	n := items.Rows()
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
	x.norms = make([]float64, n)
	for s, id := range order {
		x.norms[s] = norms[id]
	}
	x.tItems = eig.TransformMatrix(items.SelectRows(order))
	x.tUsers = eig.TransformMatrix(users)

	// Tail norms at the split.
	x.itemTail = make([]float64, n)
	for s := 0; s < n; s++ {
		x.itemTail[s] = mat.Norm(x.tItems.Row(s)[x.h:])
	}

	// Integer quantization (both matrices, global per-matrix scale).
	x.scaleI = quantScale(x.tItems.MaxAbs(), x.cfg.QuantLevels)
	x.qItems, x.itemErr = quantize(x.tItems, x.scaleI)
	x.scaleU = quantScale(x.tUsers.MaxAbs(), x.cfg.QuantLevels)
	var qunorm []float64
	x.qUsers, x.userErr = quantize(x.tUsers, x.scaleU)
	qunorm = make([]float64, users.Rows())
	for u := 0; u < users.Rows(); u++ {
		q := x.qUsers[u*f : (u+1)*f]
		var ss float64
		for _, v := range q {
			fv := float64(v) / x.scaleU
			ss += fv * fv
		}
		qunorm[u] = math.Sqrt(ss)
	}
	x.qUNorm = qunorm
	x.userNorm = users.RowNorms()

	// Reduction transform (SIR): shift item tail coordinates non-negative.
	if x.cfg.Variant == SIR {
		x.shift = make([]float64, f)
		for j := x.h; j < f; j++ {
			mn := math.Inf(1)
			for s := 0; s < n; s++ {
				if v := x.tItems.At(s, j); v < mn {
					mn = v
				}
			}
			if mn < 0 {
				x.shift[j] = -mn
			}
		}
		x.tailSums = make([]float64, n)
		for s := 0; s < n; s++ {
			row := x.tItems.Row(s)
			var sum float64
			for j := x.h; j < f; j++ {
				sum += row[j] + x.shift[j]
			}
			x.tailSums[s] = sum
		}
		x.uTailC = make([]float64, users.Rows())
		x.uMaxPos = make([]float64, users.Rows())
		for u := 0; u < users.Rows(); u++ {
			row := x.tUsers.Row(u)
			var c, mp float64
			for j := x.h; j < f; j++ {
				c += row[j] * x.shift[j]
				if row[j] > mp {
					mp = row[j]
				}
			}
			x.uTailC[u] = c
			x.uMaxPos[u] = mp
		}
	} else {
		x.shift, x.tailSums, x.uTailC, x.uMaxPos = nil, nil, nil, nil
	}

	x.buildTime = time.Since(start)
	return nil
}

func quantScale(maxAbs float64, levels int) float64 {
	if maxAbs == 0 {
		return 1
	}
	return float64(levels) / maxAbs
}

// quantize maps every coordinate to round(v*scale) and records each row's
// exact quantization error norm ‖row - q/scale‖.
func quantize(m *mat.Matrix, scale float64) ([]int32, []float64) {
	rows, cols := m.Rows(), m.Cols()
	q := make([]int32, rows*cols)
	errs := make([]float64, rows)
	for r := 0; r < rows; r++ {
		row := m.Row(r)
		var ss float64
		base := r * cols
		for j, v := range row {
			qv := int32(math.Round(v * scale))
			q[base+j] = qv
			d := v - float64(qv)/scale
			ss += d * d
		}
		errs[r] = math.Sqrt(ss)
	}
	return q, errs
}

// Query implements mips.Solver.
func (x *Index) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	return x.query(nil, userIDs, k, nil)
}

// QueryCtx implements mips.Solver. A floor seeds each user's heap, so the
// whole bound cascade — the norm-sorted walk break, the integer bound, the
// SVD partial bound — prunes against it from the very first candidate
// instead of waiting for the heap to fill (FEXIPRO's sequential-scan prune
// has the same threshold structure as LEMP's). ctx is polled once per user
// and every ctxPollInterval items.
func (x *Index) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	return x.query(ctx, userIDs, k, opts.Floors)
}

func (x *Index) query(ctx context.Context, userIDs []int, k int, floors []float64) ([][]topk.Entry, error) {
	if x.tItems == nil {
		return nil, fmt.Errorf("fexipro: Query before Build")
	}
	if err := mips.ValidateK(k, x.tItems.Rows()); err != nil {
		return nil, err
	}
	out := make([][]topk.Entry, len(userIDs))
	run := func(lo, hi int) error {
		for qi := lo; qi < hi; qi++ {
			if err := mips.CtxErr(ctx); err != nil {
				return err
			}
			u := userIDs[qi]
			if u < 0 || u >= x.tUsers.Rows() {
				return fmt.Errorf("fexipro: user id %d out of range [0,%d)", u, x.tUsers.Rows())
			}
			floor := math.Inf(-1)
			if floors != nil {
				floor = floors[qi]
			}
			out[qi] = x.queryOne(ctx, u, k, floor)
		}
		return nil
	}
	if err := parallel.ForErrCtx(ctx, x.cfg.Threads, len(userIDs), queryGrain, run); err != nil {
		return nil, err
	}
	return out, nil
}

// QueryAll implements mips.Solver.
func (x *Index) QueryAll(k int) ([][]topk.Entry, error) {
	if x.tUsers == nil {
		return nil, fmt.Errorf("fexipro: QueryAll before Build")
	}
	return x.Query(mips.AllUserIDs(x.tUsers.Rows()), k)
}

// queryOne answers one user's top-k, pruning against floor (-Inf = none)
// from the first candidate: a seeded heap reports its floor as the threshold
// before it fills, so every `full` guard below fires immediately.
func (x *Index) queryOne(ctx context.Context, u, k int, floor float64) []topk.Entry {
	f := x.f
	tu := x.tUsers.Row(u)
	tuHead := tu[:x.h]
	tuTail := tu[x.h:]
	tailNormU := mat.Norm(tuTail)
	unorm := x.userNorm[u]
	qu := x.qUsers[u*f : (u+1)*f]
	eU := x.userErr[u]
	qnU := x.qUNorm[u]
	sir := x.cfg.Variant == SIR

	h := topk.NewSeeded(k, floor)
	n := x.tItems.Rows()
	poll := 0
	for s := 0; s < n; s++ {
		if ctx != nil {
			if poll == 0 {
				// Cancelled: abandon the scan; the partial heap is discarded
				// by the caller's per-user ctx poll.
				if ctx.Err() != nil {
					break
				}
				poll = ctxPollInterval
			}
			poll--
		}
		thr, full := h.Threshold()
		sl := slack(thr)
		if full && unorm*x.norms[s] < thr-sl {
			break // norm-sorted: every remaining item is bounded lower
		}
		// Integer bound: u·i ≤ qu·qi/(su·si) + ‖qu/su‖·eI + eU·‖i‖.
		if full {
			qi := x.qItems[s*f : (s+1)*f]
			ib := float64(intDot(qu, qi))/(x.scaleU*x.scaleI) +
				qnU*x.itemErr[s] + eU*x.norms[s]
			if ib < thr-sl {
				continue
			}
		}
		row := x.tItems.Row(s)
		p := blas.Dot(tuHead, row[:x.h])
		if full {
			ub := p + tailNormU*x.itemTail[s]
			if sir {
				if rb := p + x.uMaxPos[u]*x.tailSums[s] - x.uTailC[u]; rb < ub {
					ub = rb
				}
			}
			if ub < thr-sl {
				continue
			}
		}
		h.Push(x.ids[s], p+blas.Dot(tuTail, row[x.h:]))
	}
	return h.Sorted()
}

// intDot is the integer kernel of the I-pruning step: an int64-accumulated
// dot of two quantized vectors.
func intDot(a, b []int32) int64 {
	var s int64
	for i, v := range a {
		s += int64(v) * int64(b[i])
	}
	return s
}

// intBound exposes the integer upper bound for the property tests: the bound
// for user u against the item at sorted position s, alongside the true
// (rotated) inner product.
func (x *Index) intBound(u, s int) (bound, truth float64) {
	f := x.f
	qu := x.qUsers[u*f : (u+1)*f]
	qi := x.qItems[s*f : (s+1)*f]
	bound = float64(intDot(qu, qi))/(x.scaleU*x.scaleI) +
		x.qUNorm[u]*x.itemErr[s] + x.userErr[u]*x.norms[s]
	truth = blas.Dot(x.tUsers.Row(u), x.tItems.Row(s))
	return bound, truth
}

// svdBound exposes the S (and, for SIR, R) upper bound for the property
// tests.
func (x *Index) svdBound(u, s int) (bound, truth float64) {
	tu := x.tUsers.Row(u)
	row := x.tItems.Row(s)
	p := blas.Dot(tu[:x.h], row[:x.h])
	bound = p + mat.Norm(tu[x.h:])*x.itemTail[s]
	if x.cfg.Variant == SIR {
		if rb := p + x.uMaxPos[u]*x.tailSums[s] - x.uTailC[u]; rb < bound {
			bound = rb
		}
	}
	truth = blas.Dot(tu, row)
	return bound, truth
}

func slack(thr float64) float64 {
	return 1e-9 * (1 + math.Abs(thr))
}

// queryGrain is the per-user chunk size handed to the shared parallel
// worker pool (internal/parallel): small enough to load-balance the very
// skewed per-user bound-cascade costs and to spread a served batch of a few
// dozen users over every thread, large enough to amortize dispatch.
const queryGrain = 8

// ctxPollInterval is how many norm-sorted scan positions pass between ctx
// polls: frequent enough that a cancellation lands promptly, rare enough
// that the poll never shows up next to the integer-bound kernel.
const ctxPollInterval = 128
