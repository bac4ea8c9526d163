package topk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k=0")
		}
	}()
	New(0)
}

func TestHeapBasics(t *testing.T) {
	h := New(3)
	if h.K() != 3 || h.Len() != 0 || h.Full() {
		t.Fatal("fresh heap state wrong")
	}
	if _, ok := h.Threshold(); ok {
		t.Fatal("threshold must be unavailable before full")
	}
	h.Push(1, 5)
	h.Push(2, 7)
	h.Push(3, 1)
	if !h.Full() {
		t.Fatal("heap should be full")
	}
	if min := h.Min(); min.Item != 3 || min.Score != 1 {
		t.Fatalf("Min = %+v, want item 3 score 1", min)
	}
	if thr, ok := h.Threshold(); !ok || thr != 1 {
		t.Fatalf("Threshold = %v,%v", thr, ok)
	}
	if h.Push(4, 0.5) {
		t.Fatal("worse candidate must be rejected")
	}
	if !h.Push(5, 10) {
		t.Fatal("better candidate must be retained")
	}
	got := h.Sorted()
	want := []Entry{{5, 10}, {2, 7}, {1, 5}}
	if !Equal(got, want, 0) {
		t.Fatalf("Sorted = %+v, want %+v", got, want)
	}
}

func TestMinOnEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Min()
}

func TestTieBreaking(t *testing.T) {
	// Equal scores: lower item id must win, both for retention and ordering.
	h := New(2)
	h.Push(9, 1.0)
	h.Push(4, 1.0)
	h.Push(7, 1.0) // should evict item 9 (highest id among equals)
	got := h.Sorted()
	want := []Entry{{4, 1.0}, {7, 1.0}}
	if !Equal(got, want, 0) {
		t.Fatalf("tie handling: got %+v, want %+v", got, want)
	}
}

func TestTieRejectionAtThreshold(t *testing.T) {
	// A candidate with score equal to the heap min enters only if its id is
	// lower than the min's id — the exact rule SortReference applies.
	h := New(1)
	h.Push(5, 3.0)
	if h.Push(8, 3.0) {
		t.Fatal("equal score, higher id must not displace")
	}
	if !h.Push(2, 3.0) {
		t.Fatal("equal score, lower id must displace")
	}
	if got := h.Sorted(); got[0].Item != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestReset(t *testing.T) {
	h := New(2)
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset must empty the heap")
	}
	h.Push(2, 2)
	if got := h.Sorted(); len(got) != 1 || got[0].Item != 2 {
		t.Fatalf("heap unusable after Reset: %+v", got)
	}
}

func TestHeapMatchesSortReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse quantization forces many exact ties.
			scores[i] = float64(rng.Intn(10))
		}
		got := SelectRow(scores, 100, k)
		want := SortReference(scores, 100, k)
		return Equal(got, want, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSortedMatchesSortSliceOracle: Heap.Sorted ranks the retained entries
// exactly as sort.Slice under the package's order does — ties in score, ±0,
// negative and infinite scores, the insertion-sort sizes and the pdqsort ones.
func TestSortedMatchesSortSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := []float64{-3, -1, math.Copysign(0, -1), 0, 0.5, 2, math.Inf(1), math.Inf(-1)}
	for _, k := range []int{1, 2, 5, 12, 13, 40, 300} {
		for trial := 0; trial < 20; trial++ {
			h := New(k)
			for item := 0; item < 2*k+trial; item++ {
				score := pool[rng.Intn(len(pool))]
				if trial%2 == 1 {
					score = rng.NormFloat64()
				}
				h.Push(item, score)
			}
			want := append([]Entry(nil), h.entries...)
			sort.Slice(want, func(i, j int) bool { return less(want[j], want[i]) })
			got := h.Sorted()
			if len(got) != len(want) {
				t.Fatalf("k=%d trial %d: %d entries, want %d", k, trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] || math.Signbit(got[i].Score) != math.Signbit(want[i].Score) {
					t.Fatalf("k=%d trial %d: position %d is %+v, want %+v", k, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSelectRowShorterThanK(t *testing.T) {
	got := SelectRow([]float64{3, 1}, 0, 5)
	want := []Entry{{0, 3}, {1, 1}}
	if !Equal(got, want, 0) {
		t.Fatalf("got %+v", got)
	}
}

func TestMergeInto(t *testing.T) {
	h := New(2)
	MergeInto(h, []Entry{{1, 5}, {2, 9}})
	MergeInto(h, []Entry{{3, 7}, {4, 1}})
	got := h.Sorted()
	want := []Entry{{2, 9}, {3, 7}}
	if !Equal(got, want, 0) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestMergeSlabsEqualsSingleScan(t *testing.T) {
	// Harvesting in two slabs must equal harvesting in one — the invariant
	// BMM's batched execution depends on.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		k := 1 + rng.Intn(10)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.NormFloat64()
		}
		cut := 1 + rng.Intn(n-1)
		h := New(k)
		MergeInto(h, SelectRow(scores[:cut], 0, k))
		MergeInto(h, SelectRow(scores[cut:], cut, k))
		return Equal(h.Sorted(), SortReference(scores, 0, k), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEqual(t *testing.T) {
	a := []Entry{{1, 1.0}}
	if Equal(a, []Entry{{1, 1.0}, {2, 2.0}}, 0) {
		t.Fatal("length mismatch must not be equal")
	}
	if Equal(a, []Entry{{2, 1.0}}, 1) {
		t.Fatal("item mismatch must not be equal")
	}
	if !Equal(a, []Entry{{1, 1.0 + 1e-12}}, 1e-9) {
		t.Fatal("within tolerance must be equal")
	}
}

func BenchmarkSelectRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 17770) // Netflix item count
	for i := range scores {
		scores[i] = rng.NormFloat64()
	}
	for _, k := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SelectRow(scores, 0, k)
			}
		})
	}
}
