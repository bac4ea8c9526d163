// Package topk implements the bounded min-heap used by every MIPS solver to
// extract the K largest ratings, plus helpers for harvesting top-K rows
// out of the dense score matrices that blocked matrix multiply produces.
//
// Ordering convention (shared repository-wide): results are ranked by higher
// score first, with ties broken toward the lower item id. The heap applies
// the same rule symmetrically, so all solvers agree exactly on tie handling.
package topk

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"optimus/internal/blas"
)

// Entry is one scored item.
type Entry struct {
	Item  int
	Score float64
}

// less orders entries by "worse first": lower score first, and on equal
// scores, the higher item id first (because a lower id wins ties).
func less(a, b Entry) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Item > b.Item
}

// Heap is a bounded min-heap of the best K entries seen so far. The root is
// always the *worst* retained entry, so a candidate beats the heap iff it
// beats the root. The zero value is unusable; call New.
//
// A heap can additionally carry a floor (NewSeeded, SetFloor): a lower bound
// on the k-th score the caller already knows from elsewhere — in the sharded
// two-wave query path, the head shard's k-th score for the same user. The
// floor acts as a virtual threshold from the very first push: candidates
// strictly below it are rejected even while the heap has room, and Threshold
// reports it before the heap fills so solver prune conditions fire
// immediately. Candidates scoring exactly the floor are retained, because a
// tied item with a lower id than the floor's source still wins the global
// tie-break; the seeded result is therefore always a prefix of the unseeded
// result — every entry with score >= floor, in identical order, truncated at
// k (see the package tests for the property statement).
type Heap struct {
	k       int
	floor   float64 // virtual threshold; -Inf when unseeded
	seeded  bool    // floor > -Inf: Threshold is available before the heap fills
	entries []Entry
}

// New returns a heap retaining the best k entries. Panics if k < 1.
func New(k int) *Heap {
	if k < 1 {
		panic(fmt.Sprintf("topk: k must be >= 1, got %d", k))
	}
	return &Heap{k: k, floor: math.Inf(-1), entries: make([]Entry, 0, k)}
}

// NewSeeded returns a heap retaining the best k entries at or above floor.
// floor = -Inf is the unseeded heap New returns. Panics if k < 1.
func NewSeeded(k int, floor float64) *Heap {
	h := New(k)
	h.SetFloor(floor)
	return h
}

// SetFloor installs a lower bound on the k-th score: candidates strictly
// below it are rejected, candidates tying it are retained (see the Heap
// comment). It must be called while the heap is empty — retroactively
// raising the floor over retained entries would have to evict them — and
// panics otherwise. Reset keeps the floor; call SetFloor after Reset to
// change it between reuses.
func (h *Heap) SetFloor(floor float64) {
	if len(h.entries) != 0 {
		panic("topk: SetFloor on a non-empty heap")
	}
	h.floor = floor
	h.seeded = !math.IsInf(floor, -1)
}

// RaiseFloor tightens the floor mid-query, the live-floor counterpart of
// SetFloor: lower-or-equal floors and NaN are no-ops, so feeding it a
// monotone FloorBoard cell is always safe. Unlike SetFloor it may be called
// on a populated heap; retained entries strictly below the new floor are
// evicted (ties at the floor survive, exactly as Push retains them). The
// eviction is what keeps the floor contract exact: without it, a retained
// sub-floor entry could occupy a slot that a later, better candidate —
// itself rejected against the raised floor — was entitled to, and the result
// would no longer be entry-for-entry the prefix a statically seeded query at
// the final floor produces.
func (h *Heap) RaiseFloor(floor float64) {
	if floor != floor || floor <= h.floor {
		return
	}
	h.floor = floor
	h.seeded = true
	for len(h.entries) > 0 && h.entries[0].Score < floor {
		n := len(h.entries) - 1
		h.entries[0] = h.entries[n]
		h.entries = h.entries[:n]
		if n > 1 {
			h.siftDown(0)
		}
	}
}

// Floor returns the current floor (-Inf when unseeded).
func (h *Heap) Floor() float64 { return h.floor }

// K returns the heap's capacity.
func (h *Heap) K() int { return h.k }

// Len returns the number of retained entries.
func (h *Heap) Len() int { return len(h.entries) }

// Full reports whether the heap holds K entries.
func (h *Heap) Full() bool { return len(h.entries) == h.k }

// Min returns the worst retained entry. It is only meaningful once the heap
// is full; before that the true top-K threshold is -inf and callers must not
// prune. Panics on an empty heap.
func (h *Heap) Min() Entry {
	if len(h.entries) == 0 {
		panic("topk: Min of empty heap")
	}
	return h.entries[0]
}

// Threshold returns the current pruning threshold and whether pruning is
// allowed. For an unseeded heap that is the root score once full, and
// ok=false while the heap still has room. A seeded heap reports its floor
// even before it fills — the whole point of floor seeding is that prune
// conditions fire from the first candidate. Every retained entry scores at
// least the floor, so a full seeded heap's root already dominates it.
func (h *Heap) Threshold() (score float64, ok bool) {
	if h.Full() {
		return h.entries[0].Score, true
	}
	if h.seeded {
		return h.floor, true
	}
	return 0, false
}

// Push offers a candidate. It returns true if the candidate was retained.
// Candidates strictly below the floor are rejected regardless of occupancy;
// candidates tying the floor compete normally (ties at the floor must
// survive for the global tie-break — see the Heap comment).
func (h *Heap) Push(item int, score float64) bool {
	if score < h.floor {
		return false
	}
	e := Entry{Item: item, Score: score}
	if len(h.entries) < h.k {
		h.entries = append(h.entries, e)
		h.siftUp(len(h.entries) - 1)
		return true
	}
	if !less(h.entries[0], e) {
		return false
	}
	h.entries[0] = e
	h.siftDown(0)
	return true
}

// Reset empties the heap for reuse, keeping its capacity and floor.
func (h *Heap) Reset() { h.entries = h.entries[:0] }

// Sorted returns the retained entries ranked best-first (descending score,
// ascending item id on ties). The heap is left empty afterwards; the returned
// slice reuses the heap's storage.
func (h *Heap) Sorted() []Entry {
	out := h.entries
	sortEntries(out)
	h.entries = nil
	return out
}

// sortEntries ranks entries best-first in place. less is a total order over
// a heap's entries (distinct items), so any correct sort gives the same
// output; slices.SortFunc avoids sort.Slice's reflection.
func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int {
		switch {
		case less(b, a):
			return -1
		case less(a, b):
			return 1
		}
		return 0
	})
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.entries[i], h.entries[parent]) {
			return
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && less(h.entries[l], h.entries[smallest]) {
			smallest = l
		}
		if r < n && less(h.entries[r], h.entries[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
}

// SelectRow returns the top-k entries of one dense score row, where the item
// id of scores[j] is itemBase+j. This is the harvesting step that follows a
// BMM multiply: the paper notes its cost is why BMM's runtime varies with K.
// Allocation-sensitive callers harvesting many rows should reuse one heap
// with SelectRowInto instead; floor-aware harvesting seeds that heap first.
func SelectRow(scores []float64, itemBase, k int) []Entry {
	h := New(k)
	h.PushRow(scores, itemBase)
	return h.Sorted()
}

// PushRow offers scores[j] as item itemBase+j, in row order, and leaves in h
// what a Push per score would. Every id already in h must be below
// itemBase, as it is for a heap that is empty or has taken the earlier
// column blocks of the same row. The scores a Push would reject are passed
// over by blas.Scan: below the floor while h has room, and at or below the
// running k-th score once it is full — a tie then belongs to a higher id
// than the k-th entry's and loses the tie-break. Everything else, NaN on
// either side of the compare included, is left to Push.
func (h *Heap) PushRow(scores []float64, itemBase int) {
	j := 0
	for ; j < len(scores) && len(h.entries) < h.k; j++ {
		if h.seeded {
			if j += blas.Scan(scores[j:], h.floor, blas.SkipBelow); j == len(scores) {
				return
			}
		}
		h.Push(itemBase+j, scores[j])
	}
	for j < len(scores) {
		if j += blas.Scan(scores[j:], h.entries[0].Score, blas.SkipAtOrBelow); j == len(scores) {
			return
		}
		h.Push(itemBase+j, scores[j])
		j++
	}
}

// Drain returns the retained entries ranked best-first in a freshly
// allocated slice sized to their count — nil when there are none — and
// leaves h empty, with its capacity and floor intact.
func (h *Heap) Drain() []Entry {
	if len(h.entries) == 0 {
		return nil
	}
	sortEntries(h.entries)
	out := make([]Entry, len(h.entries))
	copy(out, h.entries)
	h.Reset()
	return out
}

// SelectRowInto is SelectRow over a caller-supplied heap, reusing its storage
// across rows: h must be empty (freshly created, Reset, or left behind by a
// previous SelectRowInto) and is left empty — with capacity and floor intact
// — on return. The returned slice is Drain's, so a seeded heap whose floor
// rejects a whole row costs no allocation at all.
func SelectRowInto(h *Heap, scores []float64, itemBase int) []Entry {
	h.PushRow(scores, itemBase)
	return h.Drain()
}

// MergeInto pushes previously harvested entries into h, used when a user's
// scores arrive in multiple slabs.
func MergeInto(h *Heap, entries []Entry) {
	for _, e := range entries {
		h.Push(e.Item, e.Score)
	}
}

// SortReference computes top-k by fully sorting a copy of the scores. It is
// O(n log n) and exists as the oracle against which the heap path is
// property-tested, and as the "no early termination" straw man in ablations.
func SortReference(scores []float64, itemBase, k int) []Entry {
	all := make([]Entry, len(scores))
	for j, s := range scores {
		all[j] = Entry{Item: itemBase + j, Score: s}
	}
	sort.Slice(all, func(i, j int) bool { return less(all[j], all[i]) })
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Equal reports whether two rankings are identical (same items, same order)
// with scores compared to within tol.
func Equal(a, b []Entry, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item {
			return false
		}
		d := a[i].Score - b[i].Score
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}
