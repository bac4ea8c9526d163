package topk

import (
	"math"
	"sync/atomic"
)

// FloorBoard is a set of per-user score floors that only ever rise — the
// shared state behind the pipelined wave schedule. Each cell holds a lower
// bound on one user's global k-th score; concurrent writers tighten a cell
// with Raise (a CAS-max loop) while concurrent readers poll it with Floor at
// their pruning decision points. Monotonicity is the whole correctness
// argument: a solver that observed floor f for a user and later observes
// f' >= f has only ever pruned candidates strictly below a *valid* lower
// bound, so its result still satisfies the floor contract at the highest
// floor it saw (see the board contract on mips.Solver.QueryCtx, which takes a
// board through QueryOptions.Board).
//
// Cells store math.Float64bits values in atomic.Uint64s. Raw uint64
// comparison does not order floats across the sign boundary, so Raise
// compares the decoded values and CASes the encoded ones. NaN can never
// enter a board: Raise ignores NaN candidates (a NaN "bound" bounds
// nothing), and cells start at -Inf.
type FloorBoard struct {
	cells []atomic.Uint64
}

// negInfBits is the stored representation of an unset cell.
var negInfBits = math.Float64bits(math.Inf(-1))

// NewFloorBoard returns a board of n cells, all -Inf (no bound).
func NewFloorBoard(n int) *FloorBoard {
	b := &FloorBoard{cells: make([]atomic.Uint64, n)}
	if negInfBits != 0 {
		b.Reset()
	}
	return b
}

// Len returns the number of cells.
func (b *FloorBoard) Len() int { return len(b.cells) }

// Floor returns cell i's current bound (-Inf when never raised).
func (b *FloorBoard) Floor(i int) float64 {
	return math.Float64frombits(b.cells[i].Load())
}

// Raise tightens cell i to at least floor, returning whether the cell
// changed. Lower-or-equal candidates and NaN are ignored; concurrent Raise
// calls converge on the maximum (the CAS loop re-reads on every failure, so
// a racing higher bound always survives).
func (b *FloorBoard) Raise(i int, floor float64) bool {
	if floor != floor { // NaN bounds nothing
		return false
	}
	c := &b.cells[i]
	for {
		old := c.Load()
		if math.Float64frombits(old) >= floor {
			return false
		}
		if c.CompareAndSwap(old, math.Float64bits(floor)) {
			return true
		}
	}
}

// Fill raises every cell to its entry in floors (len must match), the bulk
// seeding step when a query arrives with external floors already in hand.
func (b *FloorBoard) Fill(floors []float64) {
	for i, f := range floors {
		b.Raise(i, f)
	}
}

// Snapshot returns a fresh slice of every cell's current bound — the bridge
// from a live board to the static []float64 floors of a solver that does not
// poll live (BMM, a wire). The snapshot is only a point-in-time lower bound
// per cell; cells may rise immediately after.
func (b *FloorBoard) Snapshot() []float64 {
	dst := make([]float64, len(b.cells))
	for i := range dst {
		dst[i] = b.Floor(i)
	}
	return dst
}

// Reset lowers every cell back to -Inf for reuse. It must not race Raise or
// Floor — pooled boards reset between queries, never during one.
func (b *FloorBoard) Reset() {
	for i := range b.cells {
		b.cells[i].Store(negInfBits)
	}
}
