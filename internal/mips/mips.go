// Package mips defines the contract shared by every exact MIPS solver in the
// repository — the brute-force baselines, the LEMP and FEXIPRO indexes, and
// the paper's MAXIMUS — plus the naive reference oracle and the verification
// helpers the test suite and the OPTIMUS optimizer build on.
//
// Every solver answers floor-seeded and deadline-bound queries
// through one method, Solver.QueryCtx, whose doc holds the floor contract.
// The remaining optional interfaces (Sized, ItemMutator, ScanCounter, ...)
// describe capabilities some solvers lack, not alternative query paths.
//
// Solvers come in two tiers. A served solver (BMM, LEMP, MAXIMUS) implements
// ItemMutator, UserAdder, Persister and ScanCounter: it patches itself under
// churn and snapshots itself for restore. A baseline (the cone tree,
// FEXIPRO) implements Solver and, optionally, ScanCounter; it exists to be
// measured against. The composite makes any baseline mutable by rebuild:
// internal/shard rebuilds every shard a mutation or a user arrival touches
// whose sub-solver cannot patch itself, so serving a baseline under churn
// means serving it as an S = 1 composite.
package mips

import (
	"context"
	"fmt"

	"optimus/internal/mat"
	"optimus/internal/topk"
)

// Solver is an exact batch top-K MIPS solver. The lifecycle is
// Build (construct index structures over fixed user/item matrices) followed
// by any number of Query/QueryAll/QueryCtx calls. Implementations are
// read-only after Build and safe for concurrent queries.
type Solver interface {
	// Name identifies the solver in reports ("BMM", "MAXIMUS", "LEMP", ...).
	Name() string

	// Build prepares the solver for the given users (|U|×f) and items
	// (|I|×f). Both matrices must share f. Build may be called again to
	// re-index new inputs.
	Build(users, items *mat.Matrix) error

	// Query returns the exact top-k items for each listed user row, in the
	// order given. Results follow the repository ordering convention:
	// descending score, ascending item id on ties.
	Query(userIDs []int, k int) ([][]topk.Entry, error)

	// QueryAll returns the exact top-k items for every user.
	QueryAll(k int) ([][]topk.Entry, error)

	// QueryCtx is Query under a deadline and an optional floor source
	// (QueryOptions) — the one entry point the sharded fan-out, its wave
	// schedules and the serving batcher call.
	//
	// Floors: opts.Floors[i] is a lower bound on the global k-th score of
	// user userIDs[i], or math.Inf(-1) for "no bound". The row for user i
	// must be exactly the prefix of the unseeded Query row whose scores are
	// >= its floor: every entry that beats or ties the floor appears at its
	// identical rank with its identical score, and entries strictly below
	// may be omitted (rows may be shorter than k, and empty). Ties at the
	// floor MUST be retained — a tied item can still win a global merge on
	// the lower-item-id rule. VerifyFloorPrefix checks this contract.
	//
	// Ignoring floors is always valid, because the unseeded
	// answer is a superset of every floored prefix: a minimal solver checks
	// ctx once and answers with Query.
	//
	// Deadlines: cancellation is cooperative. The solver polls ctx at its
	// natural work boundaries and returns ctx.Err() promptly once it is
	// done, discarding partial work; a call that completes before noticing
	// may return its exact answer instead. A nil ctx never cancels.
	QueryCtx(ctx context.Context, userIDs []int, k int, opts QueryOptions) ([][]topk.Entry, error)

	// Batches reports whether the solver amortizes work across the users
	// within a single Query call (true for BMM and MAXIMUS). The OPTIMUS
	// optimizer measures batching solvers on whole samples and reserves the
	// incremental t-test for non-batching (point-query) solvers (§IV-A).
	Batches() bool
}

// Factory constructs a fresh, unbuilt Solver. Composite solvers — the
// item-sharded executor in internal/shard, the per-shard OPTIMUS planner —
// need to instantiate one independent sub-solver per partition; a closure
// over the desired configuration is exactly that:
//
//	factory := func() mips.Solver { return core.NewBMM(core.BMMConfig{}) }
//
// Successive calls must return distinct instances (each will be Built on a
// different item subset); returning a shared instance is a caller bug.
type Factory func() Solver

// Sized is the optional interface for solvers that can report the corpus
// dimensions they were built over. Front ends use it to validate request
// parameters without a solver round-trip — internal/serving triages a
// poisoned batch this way, isolating the bad requests in O(1) extra solver
// calls instead of re-querying the whole batch serially. Both methods
// return 0 before Build.
type Sized interface {
	// NumUsers returns the number of user rows the solver was built over.
	NumUsers() int
	// NumItems returns the number of item rows the solver was built over.
	NumItems() int
}

// ScanStats counts the candidate evaluations a solver performed: one count
// per item whose score — full, partial, or via a shared block multiply — was
// computed against a query. It is the deterministic measure of pruning
// effectiveness: wall-clock on a loaded 1-CPU box swings ±30%, but the set
// of candidates a solver scans for a fixed (corpus, query, floor) input is
// decided by the data alone, so floors-on vs floors-off comparisons are
// exact. Counts accumulate across queries until ResetScanStats (Build also
// resets), and are identical at every Threads setting: the repository's
// deterministic work decomposition scans the same candidates regardless of
// worker count, and totals are order-independent sums.
type ScanStats struct {
	// Scanned is the number of item candidates evaluated since the last
	// reset.
	Scanned int64
}

// Add accumulates other into s.
func (s *ScanStats) Add(other ScanStats) { s.Scanned += other.Scanned }

// ScanCounter is the optional interface for solvers that meter their scan
// loops (see ScanStats).
type ScanCounter interface {
	ScanStats() ScanStats
	ResetScanStats()
}

// ThreadSetter is the optional interface for solvers whose query parallelism
// can be adjusted after construction (n <= 0 selects the package-wide
// default from internal/parallel). The OPTIMUS optimizer uses it to align
// every candidate to the parallelism the final pass will run at, so the
// sampled measurements extrapolate to the machine that executes the winner
// rather than to a single core.
type ThreadSetter interface {
	SetThreads(n int)
}

// ValidateInputs performs the shape checks shared by all Build
// implementations.
func ValidateInputs(users, items *mat.Matrix) error {
	if users == nil || items == nil {
		return fmt.Errorf("mips: nil input matrix")
	}
	if users.Cols() != items.Cols() {
		return fmt.Errorf("mips: users have %d factors, items have %d", users.Cols(), items.Cols())
	}
	if users.Rows() == 0 {
		return fmt.Errorf("mips: no users")
	}
	if items.Rows() == 0 {
		return fmt.Errorf("mips: no items")
	}
	if k := users.Cols(); k == 0 {
		return fmt.Errorf("mips: zero latent factors")
	}
	return nil
}

// ValidateK checks a requested top-K depth against the item count.
func ValidateK(k, numItems int) error {
	if k < 1 {
		return fmt.Errorf("mips: k must be >= 1, got %d", k)
	}
	if k > numItems {
		return fmt.Errorf("mips: k=%d exceeds item count %d", k, numItems)
	}
	return nil
}

// Naive is the unindexed per-pair reference: a double loop of inner products
// with heap selection, the baseline §II-B reports BLAS beating by ~40×.
// It is the correctness oracle for every other solver.
type Naive struct {
	users, items *mat.Matrix
	gen          uint64 // ItemMutator mutation stamp (see mutate.go)
}

// NewNaive returns an unbuilt naive solver.
func NewNaive() *Naive { return &Naive{} }

// Name implements Solver.
func (n *Naive) Name() string { return "Naive" }

// Batches implements Solver; the naive loop shares no work across users.
func (n *Naive) Batches() bool { return false }

// NumUsers implements Sized.
func (n *Naive) NumUsers() int {
	if n.users == nil {
		return 0
	}
	return n.users.Rows()
}

// NumItems implements Sized.
func (n *Naive) NumItems() int {
	if n.items == nil {
		return 0
	}
	return n.items.Rows()
}

// Build implements Solver.
func (n *Naive) Build(users, items *mat.Matrix) error {
	if err := ValidateInputs(users, items); err != nil {
		return err
	}
	n.users, n.items = users, items
	n.gen = 0
	return nil
}

// Query implements Solver.
func (n *Naive) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	if n.users == nil {
		return nil, fmt.Errorf("mips: Query before Build")
	}
	if err := ValidateK(k, n.items.Rows()); err != nil {
		return nil, err
	}
	out := make([][]topk.Entry, len(userIDs))
	for qi, u := range userIDs {
		if u < 0 || u >= n.users.Rows() {
			return nil, fmt.Errorf("mips: user id %d out of range [0,%d)", u, n.users.Rows())
		}
		h := topk.New(k)
		urow := n.users.Row(u)
		for j := 0; j < n.items.Rows(); j++ {
			h.Push(j, mat.Dot(urow, n.items.Row(j)))
		}
		out[qi] = h.Sorted()
	}
	return out, nil
}

// QueryAll implements Solver.
func (n *Naive) QueryAll(k int) ([][]topk.Entry, error) {
	if n.users == nil {
		return nil, fmt.Errorf("mips: QueryAll before Build")
	}
	return n.Query(AllUserIDs(n.users.Rows()), k)
}

// AllUserIDs returns the identity id list [0, n).
func AllUserIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// VerifyTopK checks that `got` is a correct exact top-k answer for user row
// u against the given items, without requiring identical tie resolution
// between solvers whose floating-point summation orders differ. It verifies:
//
//  1. the result has exactly k entries with strictly ranked ordering,
//  2. every reported score matches the true inner product within tol,
//  3. no unreported item beats the reported k-th score by more than tol.
func VerifyTopK(user []float64, items *mat.Matrix, got []topk.Entry, k int, tol float64) error {
	if len(got) != k {
		return fmt.Errorf("mips: got %d entries, want %d", len(got), k)
	}
	seen := make(map[int]bool, k)
	for rank, e := range got {
		if e.Item < 0 || e.Item >= items.Rows() {
			return fmt.Errorf("mips: rank %d item %d out of range", rank, e.Item)
		}
		if seen[e.Item] {
			return fmt.Errorf("mips: duplicate item %d", e.Item)
		}
		seen[e.Item] = true
		truth := mat.Dot(user, items.Row(e.Item))
		if diff := abs(truth - e.Score); diff > tol*(1+abs(truth)) {
			return fmt.Errorf("mips: rank %d item %d score %v, true %v", rank, e.Item, e.Score, truth)
		}
		if rank > 0 {
			prev := got[rank-1]
			if e.Score > prev.Score+tol {
				return fmt.Errorf("mips: ranks %d,%d out of order (%v > %v)", rank-1, rank, e.Score, prev.Score)
			}
			if e.Score == prev.Score && e.Item < prev.Item {
				return fmt.Errorf("mips: tie between items %d,%d broken wrong way", prev.Item, e.Item)
			}
		}
	}
	kth := got[k-1].Score
	for j := 0; j < items.Rows(); j++ {
		if seen[j] {
			continue
		}
		if s := mat.Dot(user, items.Row(j)); s > kth+tol*(1+abs(s)) {
			return fmt.Errorf("mips: missed item %d with score %v > kth %v", j, s, kth)
		}
	}
	return nil
}

// VerifyFloorPrefix checks a floor-seeded QueryCtx result against the
// unseeded reference for the same (userIDs, k): each seeded row must be a
// prefix of the corresponding unseeded row that retains at least every entry
// whose score beats or ties its floor — the floor contract on
// Solver.QueryCtx. Scores are compared exactly: both calls run the same
// kernels over the same sub-matrices, so even the last ulp must agree.
func VerifyFloorPrefix(unseeded, seeded [][]topk.Entry, floors []float64) error {
	if len(seeded) != len(unseeded) {
		return fmt.Errorf("mips: %d seeded rows for %d unseeded", len(seeded), len(unseeded))
	}
	if len(floors) != len(unseeded) {
		return fmt.Errorf("mips: %d floors for %d rows", len(floors), len(unseeded))
	}
	for i, want := range unseeded {
		got := seeded[i]
		if len(got) > len(want) {
			return fmt.Errorf("mips: row %d: seeded has %d entries, unseeded %d", i, len(got), len(want))
		}
		cut := 0
		for cut < len(want) && want[cut].Score >= floors[i] {
			cut++
		}
		if len(got) < cut {
			return fmt.Errorf("mips: row %d: floor %v: seeded dropped entry %d (%+v) scoring at or above the floor",
				i, floors[i], len(got), want[len(got)])
		}
		for r := range got {
			if got[r] != want[r] {
				return fmt.Errorf("mips: row %d rank %d: seeded %+v, unseeded %+v", i, r, got[r], want[r])
			}
		}
	}
	return nil
}

// VerifyAll runs VerifyTopK for every user in the result set.
func VerifyAll(users, items *mat.Matrix, results [][]topk.Entry, k int, tol float64) error {
	if len(results) != users.Rows() {
		return fmt.Errorf("mips: %d results for %d users", len(results), users.Rows())
	}
	for u, res := range results {
		if err := VerifyTopK(users.Row(u), items, res, k, tol); err != nil {
			return fmt.Errorf("user %d: %w", u, err)
		}
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
