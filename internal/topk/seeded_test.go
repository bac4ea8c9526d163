package topk

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSeededBasics(t *testing.T) {
	h := NewSeeded(3, 5.0)
	if h.Floor() != 5.0 {
		t.Fatalf("Floor = %v, want 5", h.Floor())
	}
	// Seeded: the threshold is available before the heap fills.
	if thr, ok := h.Threshold(); !ok || thr != 5.0 {
		t.Fatalf("Threshold = %v,%v, want 5,true", thr, ok)
	}
	if h.Push(1, 4.9) {
		t.Fatal("below-floor candidate must be rejected")
	}
	if !h.Push(2, 5.0) {
		t.Fatal("candidate tying the floor must be retained")
	}
	if !h.Push(3, 7.0) {
		t.Fatal("above-floor candidate must be retained")
	}
	// Not yet full: the floor still rules the threshold.
	if thr, ok := h.Threshold(); !ok || thr != 5.0 {
		t.Fatalf("Threshold = %v,%v, want 5,true", thr, ok)
	}
	h.Push(4, 6.0)
	// Full: the root (>= floor by construction) takes over.
	if thr, ok := h.Threshold(); !ok || thr != 5.0 {
		t.Fatalf("full Threshold = %v,%v, want root 5,true", thr, ok)
	}
	got := h.Sorted()
	want := []Entry{{3, 7}, {4, 6}, {2, 5}}
	if !slices.Equal(got, want) {
		t.Fatalf("Sorted = %+v, want %+v", got, want)
	}
}

func TestNewIsUnseeded(t *testing.T) {
	h := New(2)
	if !math.IsInf(h.Floor(), -1) {
		t.Fatalf("New floor = %v, want -Inf", h.Floor())
	}
	if _, ok := h.Threshold(); ok {
		t.Fatal("unseeded heap must not report a threshold before it fills")
	}
	if !h.Push(1, math.Inf(-1)+1) || !h.Push(2, -1e300) {
		t.Fatal("unseeded heap must accept arbitrarily low scores")
	}
}

func TestSetFloorPanicsOnNonEmpty(t *testing.T) {
	h := New(2)
	h.Push(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for SetFloor on non-empty heap")
		}
	}()
	h.SetFloor(0)
}

func TestResetKeepsFloor(t *testing.T) {
	h := NewSeeded(2, 3.0)
	h.Push(1, 4)
	h.Reset()
	if h.Floor() != 3.0 {
		t.Fatalf("floor after Reset = %v, want 3", h.Floor())
	}
	if h.Push(2, 2.5) {
		t.Fatal("floor must still reject after Reset")
	}
	h.SetFloor(math.Inf(-1))
	if !h.Push(2, 2.5) {
		t.Fatal("clearing the floor must re-admit low scores")
	}
}

// seededPrefix checks the floor contract the two-wave sharded query relies
// on: the seeded result is exactly the prefix of the unseeded result whose
// scores are >= floor, truncated at k. Ties at the floor must be retained —
// a tied item with a lower id than the floor's source wins the global
// tie-break — which is the same hazard LEMP's fp-slack guard band protects
// its bound pruning against.
func seededPrefix(t *testing.T, scores []float64, k int, floor float64) {
	t.Helper()
	blind := New(k)
	seeded := NewSeeded(k, floor)
	for i, s := range scores {
		blind.Push(i, s)
		seeded.Push(i, s)
	}
	want := blind.Sorted()
	cut := 0
	for cut < len(want) && want[cut].Score >= floor {
		cut++
	}
	got := seeded.Sorted()
	if !slices.Equal(got, want[:cut]) {
		t.Fatalf("floor %v: seeded %+v, want prefix %+v of %+v", floor, got, want[:cut], want)
	}
}

func TestSeededMatchesUnseededPrefix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		scores := make([]float64, n)
		for i := range scores {
			// Coarse quantization forces many exact ties, including ties at
			// the floor when the floor is drawn from the scores below.
			scores[i] = float64(rng.Intn(10))
		}
		var floor float64
		switch rng.Intn(4) {
		case 0:
			floor = scores[rng.Intn(n)] // exactly tying some candidates
		case 1:
			floor = float64(rng.Intn(10)) + 0.5 // between quantization levels
		case 2:
			floor = math.Inf(-1) // degenerate: behaves as unseeded
		default:
			floor = 11 // above everything: rejects the whole row
		}
		seededPrefix(t, scores, k, floor)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func FuzzSeededHeap(f *testing.F) {
	f.Add(int64(1), uint8(3), int16(4))
	f.Add(int64(7), uint8(1), int16(-1))
	f.Add(int64(42), uint8(20), int16(99))
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8, floorIdx int16) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(150)
		k := 1 + int(kRaw)%25
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(7)) // dense exact ties
		}
		var floor float64
		switch {
		case floorIdx < 0:
			floor = math.Inf(-1)
		case int(floorIdx) < n:
			floor = scores[floorIdx]
		default:
			floor = float64(floorIdx%20) - 6
		}
		seededPrefix(t, scores, k, floor)
	})
}

func TestSelectRowIntoMatchesSelectRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := New(5)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(6))
		}
		want := SelectRow(scores, 7, 5)
		got := SelectRowInto(h, scores, 7)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %+v, want %+v", trial, got, want)
		}
		if h.Len() != 0 {
			t.Fatal("SelectRowInto must leave the heap empty")
		}
	}
}

func TestSelectRowIntoFloorAware(t *testing.T) {
	h := New(3)
	h.SetFloor(10)
	if got := SelectRowInto(h, []float64{1, 2, 3}, 0); got != nil {
		t.Fatalf("fully-floored row must return nil, got %+v", got)
	}
	h.SetFloor(2)
	got := SelectRowInto(h, []float64{1, 2, 3}, 0)
	want := []Entry{{2, 3}, {1, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestSelectRowThresholdFirstMatchesPushLoop pins the threshold-first harvest
// to its definition: SelectRowInto and SelectRow return, entry for entry and
// score bit for score bit, what offering every score to Push returns — under
// heavy ties, seeded floors (one so high the heap never fills), ±Inf, NaN
// anywhere in the row, and k = len(scores).
func TestSelectRowThresholdFirstMatchesPushLoop(t *testing.T) {
	pushLoop := func(scores []float64, itemBase, k int, floor float64) []Entry {
		h := NewSeeded(k, floor)
		for j, s := range scores {
			h.Push(itemBase+j, s)
		}
		return h.Sorted()
	}
	same := func(a, b []Entry) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Item != b[i].Item || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				return false
			}
		}
		return true
	}
	specials := []float64{math.Inf(-1), math.Inf(1), math.NaN(), math.Copysign(0, -1), 0}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(60)
		scores := make([]float64, n)
		for i := range scores {
			switch rng.Intn(8) {
			case 0:
				scores[i] = specials[rng.Intn(len(specials))]
			case 1:
				scores[i] = rng.NormFloat64()
			default:
				scores[i] = float64(rng.Intn(6)) // duplicates
			}
		}
		k := 1 + rng.Intn(12)
		if n > 0 && trial%5 == 0 {
			k = n
		}
		floor := math.Inf(-1)
		switch rng.Intn(4) {
		case 0:
			floor = float64(rng.Intn(6))
		case 1:
			floor = 100 // above every finite score: the heap never fills
		}
		base := rng.Intn(1000)
		want := pushLoop(scores, base, k, floor)
		got := SelectRowInto(NewSeeded(k, floor), scores, base)
		if !same(got, want) {
			t.Fatalf("trial %d: k=%d floor=%v scores=%v\nSelectRowInto %+v\nPush loop     %+v", trial, k, floor, scores, got, want)
		}
		if math.IsInf(floor, -1) && !same(SelectRow(scores, base, k), want) {
			t.Fatalf("trial %d: k=%d scores=%v: SelectRow differs from the Push loop", trial, k, scores)
		}
	}
}

// TestSelectRowIntoFlooredMatchesSortReference: over a floored heap,
// SelectRowInto returns the full sort's ranking truncated at k and at the
// floor — every entry scoring at least the floor, ties at the floor kept —
// over rows long enough for the vector scan's 16-score blocks, with ties,
// ±0 and ±Inf. Harvesting the same row in column blocks through PushRow,
// the heap carried from block to block, gives the same entries.
func TestSelectRowIntoFlooredMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	specials := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(200)
		scores := make([]float64, n)
		for i := range scores {
			switch rng.Intn(10) {
			case 0:
				scores[i] = specials[rng.Intn(len(specials))]
			case 1, 2:
				scores[i] = float64(rng.Intn(4)) // ties
			default:
				scores[i] = rng.NormFloat64()
			}
		}
		k := 1 + rng.Intn(20)
		floor := []float64{math.Inf(-1), 0, 1, rng.NormFloat64(), 5}[rng.Intn(5)]
		base := rng.Intn(100)
		var want []Entry
		for _, e := range SortReference(scores, base, k) {
			if e.Score >= floor {
				want = append(want, e)
			}
		}
		got := SelectRowInto(NewSeeded(k, floor), scores, base)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: k=%d floor=%v scores=%v\nSelectRowInto  %+v\nSortReference %+v", trial, k, floor, scores, got, want)
		}
		h := NewSeeded(k, floor)
		for j0 := 0; j0 < n; {
			j1 := min(n, j0+1+rng.Intn(40))
			h.PushRow(scores[j0:j1], base+j0)
			j0 = j1
		}
		if blocked := h.Drain(); !slices.Equal(blocked, want) {
			t.Fatalf("trial %d: k=%d floor=%v: PushRow by blocks %+v, want %+v", trial, k, floor, blocked, want)
		}
	}
}
