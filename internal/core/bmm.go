// Package core implements the paper's contribution: the hardware-efficient
// brute-force solver BMM (§II-B), the MAXIMUS index (§III), and the OPTIMUS
// online optimizer that chooses between them and third-party indexes (§IV).
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/blas"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/topk"
)

// BMMConfig controls the blocked-matrix-multiply solver.
type BMMConfig struct {
	// Threads is the number of workers that multiply and harvest the
	// query's row chunks; 0 (the zero value) defers to the package-wide
	// parallel.Threads() default, normally all cores. Answers do not depend
	// on it.
	Threads int
}

// BMM is the blocked matrix multiply brute-force solver: the query's user
// rows are multiplied against every item bmmChunkRows rows at a time, and
// each chunk's scores are harvested by per-row heap selection as soon as they
// are computed. No pruning, maximal hardware efficiency — the strategy §II-B
// shows can beat the indexes outright.
type BMM struct {
	cfg   BMMConfig
	users *mat.Matrix
	items *mat.Matrix
	gen   uint64 // mips.ItemMutator mutation stamp

	// scanned counts score evaluations (mips.ScanCounter). BMM scores every
	// (query, item) pair by construction — floors thin the harvest, not the
	// GEMM — so the count is queries × items and floors never reduce it;
	// that contrast against the pruning solvers is the honest accounting.
	scanned atomic.Int64
}

// bmmPacked and bmmChunks recycle BMM's working memory across calls and
// solvers: the packed items (*blas.Packed) and each worker's score buffer
// and heaps (*bmmChunk). A call then reuses memory a previous one has already
// faulted in, which matters most for the short OPTIMUS samples: allocated
// afresh per call, a 75-user sample over 1,200 items took ~1.6× as long and
// could lose to MAXIMUS on a corpus BMM should win.
var bmmPacked, bmmChunks sync.Pool

// BMMStats reports where a query's time went, for the offline cost model
// validation (§IV-A): the GEMM stage is analytically predictable, the heap
// harvest is data-dependent. Each stage time is summed over every column
// block of every chunk, whichever worker ran it, so with T threads busy it
// reads about T times the stage's wall-clock share; divide by the thread
// count before comparing a stage with a wall-clock prediction.
type BMMStats struct {
	GemmTime    time.Duration
	HarvestTime time.Duration
}

// NewBMM returns an unbuilt BMM solver. Zero-valued config fields fall back
// to defaults.
func NewBMM(cfg BMMConfig) *BMM {
	cfg.Threads = parallel.Resolve(cfg.Threads)
	return &BMM{cfg: cfg}
}

// SetThreads implements mips.ThreadSetter: it adjusts query parallelism on
// the built solver (n <= 0 selects the package-wide default). OPTIMUS uses
// it to measure every candidate at the parallelism the final pass will use.
func (b *BMM) SetThreads(n int) { b.cfg.Threads = parallel.Resolve(n) }

// Name implements mips.Solver.
func (b *BMM) Name() string { return "BMM" }

// Batches implements mips.Solver: BMM's entire advantage is batching.
func (b *BMM) Batches() bool { return true }

// NumUsers implements mips.Sized.
func (b *BMM) NumUsers() int {
	if b.users == nil {
		return 0
	}
	return b.users.Rows()
}

// NumItems implements mips.Sized.
func (b *BMM) NumItems() int {
	if b.items == nil {
		return 0
	}
	return b.items.Rows()
}

// Build implements mips.Solver. BMM has no index; Build only validates and
// retains the inputs — the asymmetry (free construction, expensive traversal)
// that OPTIMUS's design exploits.
func (b *BMM) Build(users, items *mat.Matrix) error {
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	b.users, b.items = users, items
	b.scanned.Store(0)
	b.gen = 0
	return nil
}

// AddItems implements mips.ItemMutator. BMM keeps no index, so growing the
// catalog is a corpus append: the new rows simply join the next GEMM. The
// grown matrix is a fresh copy — the Build input (which other solvers or
// shards may alias) is never modified.
func (b *BMM) AddItems(items *mat.Matrix) ([]int, error) {
	if b.items == nil {
		return nil, fmt.Errorf("core: BMM AddItems before Build")
	}
	if err := mips.ValidateAddItems(items, b.items.Cols()); err != nil {
		return nil, err
	}
	base := b.items.Rows()
	b.items = mat.AppendRows(b.items, items)
	b.gen++
	return mips.IDRange(base, items.Rows()), nil
}

// RemoveItems implements mips.ItemMutator: compact the item matrix under the
// positional id contract (survivors keep relative order, renumbered densely).
func (b *BMM) RemoveItems(ids []int) error {
	if b.items == nil {
		return fmt.Errorf("core: BMM RemoveItems before Build")
	}
	sorted, err := mips.ValidateRemoveIDs(ids, b.items.Rows())
	if err != nil {
		return err
	}
	b.items = mat.RemoveRows(b.items, sorted)
	b.gen++
	return nil
}

// Generation implements mips.ItemMutator.
func (b *BMM) Generation() uint64 { return b.gen }

// AddUsers implements mips.UserAdder: new user rows join the query matrix;
// there is no user-side index state to maintain.
func (b *BMM) AddUsers(users *mat.Matrix) ([]int, error) {
	if b.users == nil {
		return nil, fmt.Errorf("core: BMM AddUsers before Build")
	}
	if err := mips.ValidateAddUsers(users, b.users.Cols()); err != nil {
		return nil, err
	}
	base := b.users.Rows()
	b.users = mat.AppendRows(b.users, users)
	return mips.IDRange(base, users.Rows()), nil
}

// ScanStats implements mips.ScanCounter (see the scanned field comment).
func (b *BMM) ScanStats() mips.ScanStats { return mips.ScanStats{Scanned: b.scanned.Load()} }

// ResetScanStats implements mips.ScanCounter.
func (b *BMM) ResetScanStats() { b.scanned.Store(0) }

// Query implements mips.Solver.
func (b *BMM) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	res, _, err := b.QueryStats(userIDs, k)
	return res, err
}

// QueryCtx implements mips.Solver. BMM cannot skip any inner products — the
// GEMM is monolithic — but the harvest becomes floor-aware: each row's heap
// is seeded, so below-floor scores never enter it, sift work collapses on
// heavily floored rows, and a row whose every score trails its floor
// allocates nothing. ctx is polled before every column block of every chunk
// (bmmChunkRows query rows × bmmBlockCols items), so a cancellation lands
// within about one block's multiply and harvest per worker.
func (b *BMM) QueryCtx(ctx context.Context, userIDs []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	if err := mips.ValidateQueryOptions(userIDs, opts); err != nil {
		return nil, err
	}
	res, _, err := b.queryStats(ctx, userIDs, k, opts.Floors)
	return res, err
}

// QueryStats is Query with a stage-time breakdown.
func (b *BMM) QueryStats(userIDs []int, k int) ([][]topk.Entry, BMMStats, error) {
	return b.queryStats(nil, userIDs, k, nil)
}

func (b *BMM) queryStats(ctx context.Context, userIDs []int, k int, floors []float64) ([][]topk.Entry, BMMStats, error) {
	var st BMMStats
	if b.users == nil {
		return nil, st, fmt.Errorf("core: BMM Query before Build")
	}
	if err := mips.ValidateK(k, b.items.Rows()); err != nil {
		return nil, st, err
	}
	for _, u := range userIDs {
		if u < 0 || u >= b.users.Rows() {
			return nil, st, fmt.Errorf("core: user id %d out of range [0,%d)", u, b.users.Rows())
		}
	}
	selected := b.users.SelectRows(userIDs)
	out := make([][]topk.Entry, len(userIDs))
	err := b.process(ctx, selected, out, k, floors, &st)
	return out, st, err
}

// QueryAll implements mips.Solver. It avoids the row-copy that Query's
// arbitrary id list requires.
func (b *BMM) QueryAll(k int) ([][]topk.Entry, error) {
	if b.users == nil {
		return nil, fmt.Errorf("core: BMM QueryAll before Build")
	}
	if err := mips.ValidateK(k, b.items.Rows()); err != nil {
		return nil, err
	}
	out := make([][]topk.Entry, b.users.Rows())
	var st BMMStats
	return out, b.process(nil, b.users, out, k, nil, &st)
}

// bmmChunkRows is how many query rows one worker multiplies and harvests at
// a time: the parallel grain, and the height of the per-worker score
// buffer.
const bmmChunkRows = 64

// bmmBlockCols is the width of one column block of a chunk's product: the
// cancellation unit, and with bmmChunkRows the per-worker score buffer
// (64 × 512 float64s, 256 KiB), so a block's scores are harvested from L2
// rather than from a buffer as wide as the catalog.
const bmmBlockCols = 512

// bmmChunk is one worker's recycled memory: the score buffer of one column
// block and a heap per chunk row.
type bmmChunk struct {
	scores []float64
	heaps  []*topk.Heap
}

// process scores the rows of `queries` against all items, one chunk of
// bmmChunkRows rows per worker step, and each chunk one column block of
// bmmBlockCols items at a time: the block is multiplied into a pooled buffer
// and harvested into its rows' heaps straight away, while the scores are
// still in cache. A row's heap carries over from block to block, and item
// ids ascend along the row, so the harvest's at-or-below skip stays exact.
// ctx is polled before every block. floors, when non-nil, is aligned with
// the query rows and seeds each row's heap. Every score is summed in
// DotFrom's order, so no answer depends on the chunking, the blocking or
// the thread count.
func (b *BMM) process(ctx context.Context, queries *mat.Matrix, out [][]topk.Entry, k int, floors []float64, st *BMMStats) error {
	m, n := queries.Rows(), b.items.Rows()
	// Packed once for every chunk of the query, into a pooled buffer rather
	// than one the solver keeps.
	items, ok := bmmPacked.Get().(*blas.Packed)
	if !ok {
		items = new(blas.Packed)
	}
	defer bmmPacked.Put(items)
	blas.Repack(items, b.items, m)
	var gemmNs, harvestNs atomic.Int64
	err := parallel.ForErrThreads(b.cfg.Threads, m, bmmChunkRows, func(lo, hi int) error {
		ch, ok := bmmChunks.Get().(*bmmChunk)
		if !ok {
			ch = new(bmmChunk)
		}
		defer bmmChunks.Put(ch)
		heaps := ch.heapsFor(hi-lo, k)
		for r, h := range heaps {
			floor := math.Inf(-1)
			if floors != nil {
				floor = floors[lo+r]
			}
			h.SetFloor(floor)
		}
		rows := queries.RowSlice(lo, hi)
		for j0 := 0; j0 < n; j0 += bmmBlockCols {
			if err := mips.CtxErr(ctx); err != nil {
				return err
			}
			scores := view(&ch.scores, hi-lo, min(j0+bmmBlockCols, n)-j0)
			t0 := time.Now()
			blas.GemmNTPackedCols(rows, items, scores, j0)
			t1 := time.Now()
			for r, h := range heaps {
				h.PushRow(scores.Row(r), j0)
			}
			gemmNs.Add(int64(t1.Sub(t0)))
			harvestNs.Add(int64(time.Since(t1)))
			b.scanned.Add(int64(hi-lo) * int64(scores.Cols()))
		}
		for r, h := range heaps {
			out[lo+r] = h.Drain()
		}
		return nil
	})
	st.GemmTime += time.Duration(gemmNs.Load())
	st.HarvestTime += time.Duration(harvestNs.Load())
	return err
}

// heapsFor returns rows empty heaps of capacity k, reusing ch's.
func (ch *bmmChunk) heapsFor(rows, k int) []*topk.Heap {
	if len(ch.heaps) > 0 && ch.heaps[0].K() != k {
		ch.heaps = ch.heaps[:0]
	}
	for len(ch.heaps) < rows {
		ch.heaps = append(ch.heaps, topk.New(k))
	}
	heaps := ch.heaps[:rows]
	for _, h := range heaps {
		h.Reset() // a cancelled call leaves its heaps part-filled
	}
	return heaps
}
