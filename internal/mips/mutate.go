package mips

import (
	"fmt"
	"sort"

	"optimus/internal/mat"
)

// ItemMutator is the optional Solver refinement for mutable item corpora —
// the build/mutate lifecycle that real recommender catalogs need (items churn
// continuously; the paper's §III-E dynamic-arrival sketch covers users only).
// A mutator keeps serving exact answers while its catalog changes, patching
// its index structures instead of rebuilding the world.
//
// Identity semantics (the compaction contract). Item ids are positional: id i
// names row i of the current corpus. AddItems appends — if the corpus holds n
// items, the new items receive ids [n, n+m) in input-row order, and those ids
// are returned. RemoveItems deletes the listed ids and compacts: surviving
// items keep their relative order and are renumbered densely, so an item with
// id i becomes i − |{removed ids < i}|. Callers tracking external item keys
// own that translation (the serving layer's generation counter tells them
// when a translation became stale). The monotone renumbering is what keeps
// the repository's descending-score/ascending-id tie convention stable across
// mutations: relative id order never changes.
//
// Exactness semantics. After any interleaving of AddItems and RemoveItems,
// Query/QueryAll/QueryCtx — floor-seeded or not — must return results
// entry-for-entry identical (same items, same ranks, == scores) to a
// freshly Built solver over the mutated corpus: the
// matrix obtained by applying the same appends and compactions to the Build
// input (mat.AppendRows / mat.RemoveRows). VerifyMutation is the oracle for
// exactly this property.
//
// Error atomicity. Both methods validate before touching any state: a call
// that returns an error leaves the solver (and its Generation) unchanged.
// RemoveItems rejects out-of-range ids, duplicates, and removing the entire
// corpus (a solver over zero items is not buildable — see ValidateInputs).
//
// Generation is the mutation stamp: 0 after Build, incremented by every
// successful AddItems or RemoveItems, and by nothing else — in particular
// a UserAdder's AddUsers never advances it (the stamp tracks the item
// corpus, whose positional ids are what a generation change invalidates;
// user arrival never renumbers anything). Serving layers expose it so
// clients can detect when cached id translations or results predate a
// catalog swap. All five implementations (the three served solvers, Naive,
// and the sharded composite) are held to these exact semantics by the
// cross-solver contract test at the repository root.
//
// Mutators are NOT safe for concurrent use with queries: callers serialize
// mutation against in-flight queries (the serving layer's single-writer/
// drain handshake, Server.Mutate, does this for online deployments).
type ItemMutator interface {
	// AddItems appends the given item vectors (rows must match the corpus
	// factor count) and returns their assigned ids, [n, n+m).
	AddItems(items *mat.Matrix) ([]int, error)
	// RemoveItems deletes the listed item ids and compacts the id space.
	RemoveItems(ids []int) error
	// Generation returns the mutation stamp (see above).
	Generation() uint64
}

// UserAdder is the optional Solver refinement for dynamic user arrival — the
// §III-E path core.Maximus.AddUsers implements (assign to nearest centroid,
// widen θb where needed). New users receive ids [n, n+m) in input-row order;
// queries for old and new users remain exact. Unlike ItemMutator, user
// arrival never invalidates item-side index structures, so every solver in
// the repository supports it. AddUsers does not advance Generation (the
// stamp tracks the item corpus). Like item mutation, AddUsers must be
// serialized against in-flight queries by the caller.
type UserAdder interface {
	AddUsers(users *mat.Matrix) ([]int, error)
}

// ValidateAddItems checks the AddItems argument shapes shared by all
// implementations: a non-nil, non-empty matrix whose factor count matches
// the corpus.
func ValidateAddItems(items *mat.Matrix, cols int) error {
	if items == nil || items.Rows() == 0 {
		return fmt.Errorf("mips: AddItems with no items")
	}
	if items.Cols() != cols {
		return fmt.Errorf("mips: new items have %d factors, corpus has %d", items.Cols(), cols)
	}
	return nil
}

// ValidateAddUsers checks the AddUsers argument shapes shared by all
// implementations: a non-nil, non-empty matrix whose factor count matches
// the user matrix.
func ValidateAddUsers(users *mat.Matrix, cols int) error {
	if users == nil || users.Rows() == 0 {
		return fmt.Errorf("mips: AddUsers with no users")
	}
	if users.Cols() != cols {
		return fmt.Errorf("mips: new users have %d factors, corpus has %d", users.Cols(), cols)
	}
	return nil
}

// ValidateRemoveIDs checks a RemoveItems id list against a corpus of
// numItems rows and returns a sorted copy (implementations compact against
// ascending ids). It rejects an empty list, out-of-range ids, duplicates,
// and removing every item.
func ValidateRemoveIDs(ids []int, numItems int) ([]int, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("mips: RemoveItems with no ids")
	}
	if len(ids) >= numItems {
		return nil, fmt.Errorf("mips: removing %d of %d items would empty the corpus", len(ids), numItems)
	}
	sorted := make([]int, len(ids))
	copy(sorted, ids)
	sort.Ints(sorted)
	for i, id := range sorted {
		if id < 0 || id >= numItems {
			return nil, fmt.Errorf("mips: item id %d out of range [0,%d)", id, numItems)
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("mips: duplicate item id %d", id)
		}
	}
	return sorted, nil
}

// RemovedBefore returns |{r ∈ sortedRemoved : r < id}| — the shift the
// compaction contract applies to a surviving id. sortedRemoved must be
// ascending (ValidateRemoveIDs output).
func RemovedBefore(sortedRemoved []int, id int) int {
	return sort.SearchInts(sortedRemoved, id)
}

// VerifyMutation is the mutable-corpus oracle: it checks that a mutated
// solver answers every user at depth k exactly like Naive over the mutated
// corpus (VerifyAll) — the ItemMutator exactness contract, which makes it
// entry-for-entry identical to a fresh build of any solver. items must be
// the mutated corpus (the Build input with the same appends and compactions
// applied — mat.AppendRows / mat.RemoveRows keep test bookkeeping trivial).
// When the mutated solver reports sizes (Sized), its corpus dimensions must
// also match the expected matrices.
func VerifyMutation(mutated Solver, users, items *mat.Matrix, k int) error {
	if sized, ok := mutated.(Sized); ok {
		if got, want := sized.NumItems(), items.Rows(); got != want {
			return fmt.Errorf("mips: mutated %s reports %d items, corpus has %d", mutated.Name(), got, want)
		}
		if got, want := sized.NumUsers(), users.Rows(); got != want {
			return fmt.Errorf("mips: mutated %s reports %d users, corpus has %d", mutated.Name(), got, want)
		}
	}
	got, err := mutated.QueryAll(k)
	if err != nil {
		return fmt.Errorf("mips: mutated %s: %w", mutated.Name(), err)
	}
	if err := VerifyAll(users, items, got, k); err != nil {
		return fmt.Errorf("mips: mutated %s fails the exactness oracle: %w", mutated.Name(), err)
	}
	return nil
}

// IDRange returns the ids [base, base+n) — the contiguous id block AddItems
// and AddUsers return under the positional id contract.
func IDRange(base, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = base + i
	}
	return ids
}

// --- Naive: the trivial ItemMutator/UserAdder ---
// The reference solver has no index, so mutation is pure corpus bookkeeping;
// it doubles as the executable specification of the compaction contract.

// AddItems implements ItemMutator.
func (n *Naive) AddItems(items *mat.Matrix) ([]int, error) {
	if n.items == nil {
		return nil, fmt.Errorf("mips: AddItems before Build")
	}
	if err := ValidateAddItems(items, n.items.Cols()); err != nil {
		return nil, err
	}
	base := n.items.Rows()
	n.items = mat.AppendRows(n.items, items)
	n.gen++
	return IDRange(base, items.Rows()), nil
}

// RemoveItems implements ItemMutator.
func (n *Naive) RemoveItems(ids []int) error {
	if n.items == nil {
		return fmt.Errorf("mips: RemoveItems before Build")
	}
	sorted, err := ValidateRemoveIDs(ids, n.items.Rows())
	if err != nil {
		return err
	}
	n.items = mat.RemoveRows(n.items, sorted)
	n.gen++
	return nil
}

// Generation implements ItemMutator.
func (n *Naive) Generation() uint64 { return n.gen }

// AddUsers implements UserAdder.
func (n *Naive) AddUsers(users *mat.Matrix) ([]int, error) {
	if n.users == nil {
		return nil, fmt.Errorf("mips: AddUsers before Build")
	}
	if err := ValidateAddUsers(users, n.users.Cols()); err != nil {
		return nil, err
	}
	base := n.users.Rows()
	n.users = mat.AppendRows(n.users, users)
	return IDRange(base, users.Rows()), nil
}

// ensure the reference solver satisfies the contracts it specifies.
var (
	_ ItemMutator = (*Naive)(nil)
	_ UserAdder   = (*Naive)(nil)
)
