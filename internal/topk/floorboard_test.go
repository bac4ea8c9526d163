package topk

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestFloorBoardBasics(t *testing.T) {
	b := NewFloorBoard(3)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	for i := 0; i < 3; i++ {
		if !math.IsInf(b.Floor(i), -1) {
			t.Fatalf("cell %d starts at %v, want -Inf", i, b.Floor(i))
		}
	}
	if !b.Raise(0, 1.5) {
		t.Fatal("raising -Inf to 1.5 must change the cell")
	}
	if b.Raise(0, 1.5) {
		t.Fatal("raising to the current bound must be a no-op")
	}
	if b.Raise(0, 1.0) {
		t.Fatal("lowering must be a no-op")
	}
	if b.Floor(0) != 1.5 {
		t.Fatalf("cell 0 = %v, want 1.5", b.Floor(0))
	}
	if b.Raise(1, math.NaN()) {
		t.Fatal("NaN must be rejected")
	}
	if !math.IsInf(b.Floor(1), -1) {
		t.Fatal("NaN must not enter a cell")
	}
	// Negative floats: raw uint64 comparison would order these wrong.
	if !b.Raise(2, -5) || !b.Raise(2, -3) {
		t.Fatal("-5 then -3 are both raises")
	}
	if b.Raise(2, -4) {
		t.Fatal("-4 is below -3")
	}
	if b.Floor(2) != -3 {
		t.Fatalf("cell 2 = %v, want -3", b.Floor(2))
	}

	b.Fill([]float64{2.0, 0.5, -10})
	if b.Floor(0) != 2.0 || b.Floor(1) != 0.5 || b.Floor(2) != -3 {
		t.Fatalf("Fill is Raise per cell: got [%v %v %v]", b.Floor(0), b.Floor(1), b.Floor(2))
	}

	snap := b.Snapshot()
	if len(snap) != 3 || snap[0] != 2.0 || snap[1] != 0.5 || snap[2] != -3 {
		t.Fatalf("Snapshot = %v", snap)
	}

	b.Reset()
	for i := 0; i < 3; i++ {
		if !math.IsInf(b.Floor(i), -1) {
			t.Fatalf("cell %d after Reset = %v, want -Inf", i, b.Floor(i))
		}
	}
}

// TestFloorBoardConcurrentRaise drives many writers at few cells under the
// race detector: every cell must converge on the maximum bound any writer
// offered, with no torn or lost updates.
func TestFloorBoardConcurrentRaise(t *testing.T) {
	const cells = 4
	const writers = 8
	const perWriter = 500
	b := NewFloorBoard(cells)
	want := make([]float64, cells)
	for i := range want {
		want[i] = math.Inf(-1)
	}
	vals := make([][]float64, writers)
	for w := range vals {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		vals[w] = make([]float64, perWriter)
		for i := range vals[w] {
			vals[w][i] = rng.NormFloat64() * 10
			if c := i % cells; vals[w][i] > want[c] {
				want[c] = vals[w][i]
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, v := range vals[w] {
				b.Raise(i%cells, v)
			}
		}(w)
	}
	wg.Wait()
	for c := 0; c < cells; c++ {
		if b.Floor(c) != want[c] {
			t.Fatalf("cell %d = %v, want %v", c, b.Floor(c), want[c])
		}
	}
}

// FuzzFloorBoard checks the CAS-max cell against a reference running maximum
// over arbitrary float bit patterns — including negatives (where raw uint64
// ordering disagrees with float ordering), infinities, and NaN (ignored).
func FuzzFloorBoard(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-1.5)))
	f.Add(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, math.Float64bits(3.0)),
		math.Float64bits(math.NaN())))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := NewFloorBoard(1)
		max := math.Inf(-1)
		for len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
			data = data[8:]
			changed := b.Raise(0, v)
			if v == v && v > max { // NaN never tightens
				max = v
				if !changed {
					t.Fatalf("raise to new max %v reported no change", v)
				}
			} else if changed {
				t.Fatalf("raise to %v (max %v) reported a change", v, max)
			}
			if got := b.Floor(0); got != max && !(math.IsInf(got, -1) && math.IsInf(max, -1)) {
				t.Fatalf("cell = %v, want running max %v", got, max)
			}
		}
	})
}

// TestRaiseFloorMatchesStaticSeed is the RaiseFloor contract: interleaving
// Push with monotone RaiseFloor calls must leave exactly the state of a heap
// statically seeded at the *final* floor and fed every entry — mid-stream
// raises retroactively evict what a tighter initial seed would have rejected
// (ties at the floor retained).
func TestRaiseFloorMatchesStaticSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		n := rng.Intn(60)
		live := New(k)
		finalFloor := math.Inf(-1)
		type ev struct {
			score float64
			raise bool
		}
		var evs []ev
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				f := rng.NormFloat64()
				evs = append(evs, ev{f, true})
				if f > finalFloor {
					finalFloor = f
				}
			} else {
				evs = append(evs, ev{rng.NormFloat64(), false})
			}
		}
		items := 0
		for _, e := range evs {
			if e.raise {
				live.RaiseFloor(e.score)
			} else {
				live.Push(items, e.score)
				items++
			}
		}
		var static *Heap
		if math.IsInf(finalFloor, -1) {
			static = New(k)
		} else {
			static = NewSeeded(k, finalFloor)
		}
		items = 0
		for _, e := range evs {
			if !e.raise {
				static.Push(items, e.score)
				items++
			}
		}
		want, got := static.Sorted(), live.Sorted()
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d entries, want %d (floor %v)", trial, len(got), len(want), finalFloor)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d rank %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestRaiseFloorEdges pins the non-property edges: NaN ignored, lower floors
// ignored, ties at the floor retained.
func TestRaiseFloorEdges(t *testing.T) {
	h := New(3)
	h.Push(1, 5)
	h.Push(2, 3)
	h.Push(3, 1)
	h.RaiseFloor(math.NaN())
	if h.Len() != 3 {
		t.Fatal("NaN raise must be ignored")
	}
	h.RaiseFloor(3)
	if h.Len() != 2 {
		t.Fatalf("raise to 3 must evict the 1 (tie at 3 retained): %v", h.Sorted())
	}
	h = New(3)
	h.Push(1, 5)
	h.RaiseFloor(2)
	h.RaiseFloor(1) // lower: no-op
	if h.Floor() != 2 {
		t.Fatalf("floor = %v, want 2", h.Floor())
	}
	if h.Push(2, 1.5) {
		t.Fatal("push below the raised floor must be rejected")
	}
}
