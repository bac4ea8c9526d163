package blas

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestDotMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(37) // covers the unrolled body and the remainder loop
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		got := Dot(a, b)
		want := mat.Dot(a, b)
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDotEmptyAndMismatch(t *testing.T) {
	if Dot(nil, nil) != 0 {
		t.Fatal("empty dot should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected mismatch panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// TestDotFromCarriesOneOrder pins DotFrom's contract: the inner product, and
// the same float however the coordinates are split across calls.
func TestDotFromCarriesOneOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for n := 0; n < 40; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		whole := DotFrom(0, a, b)
		if want := mat.Dot(a, b); math.Abs(whole-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("n=%d: DotFrom = %v, want %v", n, whole, want)
		}
		for cut := 0; cut <= n; cut++ {
			if got := DotFrom(DotFrom(0, a[:cut], b[:cut]), a[cut:], b[cut:]); got != whole {
				t.Fatalf("n=%d cut=%d: carried sum %v != whole %v", n, cut, got, whole)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected mismatch panic")
		}
	}()
	DotFrom(0, []float64{1}, []float64{1, 2})
}

// TestRepackReusesItsBuffer pins the in-place re-pack: a B of no more rows
// re-uses the panel buffer, and the result multiplies like a fresh Pack.
func TestRepackReusesItsBuffer(t *testing.T) {
	if !useKernel {
		t.Skip("no kernel in this build or on this CPU: nothing is packed")
	}
	rng := rand.New(rand.NewSource(26))
	a := randomMatrix(rng, 8, 12)
	p := Pack(randomMatrix(rng, 40, 12), a.Rows())
	buf := &p.panels[0]
	for _, n := range []int{40, 33, 16} {
		b := randomMatrix(rng, n, 12)
		Repack(p, b, a.Rows())
		if &p.panels[0] != buf {
			t.Fatalf("n=%d: Repack allocated a new buffer", n)
		}
		got, want := mat.New(8, n), mat.New(8, n)
		GemmNTPacked(a, p, got, 1)
		GemmNTPacked(a, Pack(b, a.Rows()), want, 1)
		if !got.Equal(want, 0) {
			t.Fatalf("n=%d: re-packed product differs from a fresh Pack", n)
		}
	}
	Repack(p, randomMatrix(rng, 64, 12), a.Rows())
	if len(p.panels) != 64*12 {
		t.Fatalf("a larger B holds %d packed values, want %d", len(p.panels), 64*12)
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected mismatch panic")
		}
	}()
	Axpy(1, x, y[:2])
}

func TestGemvNT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 13, 21)
	x := make([]float64, 21)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	out := make([]float64, 13)
	GemvNT(a, x, out)
	for i := 0; i < a.Rows(); i++ {
		want := mat.Dot(a.Row(i), x)
		if math.Abs(out[i]-want) > 1e-9 {
			t.Fatalf("row %d: got %v want %v", i, out[i], want)
		}
	}
}

func TestGemvShapePanics(t *testing.T) {
	a := mat.New(2, 3)
	for _, fn := range []func(){
		func() { GemvNT(a, make([]float64, 2), make([]float64, 2)) },
		func() { GemvNT(a, make([]float64, 3), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected shape panic")
				}
			}()
			fn()
		}()
	}
}

// TestGemmNTMatchesNaive is the core correctness property: the blocked kernel
// must agree with the textbook triple loop over awkward shapes that exercise
// every tile-remainder path.
func TestGemmNTMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(40)
		n := 1 + rng.Intn(40)
		k := 1 + rng.Intn(30)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, n, k)
		got := mat.New(m, n)
		want := mat.New(m, n)
		GemmNT(a, b, got)
		NaiveGemmNT(a, b, want)
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmNTCrossesTileBoundaries(t *testing.T) {
	// Shapes straddling the cache tiles and the kernel's 4-row / 8-column
	// register tile hit every partial-tile path.
	shapes := [][3]int{
		{aRowTile - 1, bRowTile - 1, 10},
		{aRowTile, bRowTile, 10},
		{aRowTile + 1, bRowTile + 1, 10},
		{2*aRowTile + 3, 2*bRowTile + 3, 7},
		{1, 1, 1},
		{3, 4*bRowTile + 2, 5},
		{kernelRows - 1, kernelCols - 1, 9},
		{kernelRows, kernelCols, 9},
		{kernelRows + 1, kernelCols + 1, 9},
		{aRowTile + kernelRows + 1, bRowTile + kernelCols + 5, 3},
	}
	rng := rand.New(rand.NewSource(11))
	for _, s := range shapes {
		a := randomMatrix(rng, s[0], s[2])
		b := randomMatrix(rng, s[1], s[2])
		got := mat.New(s[0], s[1])
		want := mat.New(s[0], s[1])
		GemmNT(a, b, got)
		NaiveGemmNT(a, b, want)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("shape %v mismatch", s)
		}
	}
}

// scalarGemmNT is the oracle of the kernel tests: the whole product through
// the scalar tile, the way a build without the kernel computes it.
func scalarGemmNT(a, b, c *mat.Matrix) {
	gemmScalar(a, b, c, 0, a.Rows(), 0, b.Rows(), 0)
}

// TestKernelBitIdenticalToScalarTile is the kernel's contract: every entry
// point returns exactly the floats the scalar tile returns, at every edge of
// the register tile, on row views, and at any thread count — and every one of
// them, the n%4 trailing columns included, is DotFrom over its row and
// column, which is what lets an index score some candidates by multiply and
// the rest one at a time.
func TestKernelBitIdenticalToScalarTile(t *testing.T) {
	if !useKernel {
		t.Log("no kernel in this build or on this CPU: the scalar tile is compared with itself")
	}
	ms := []int{0, 1, 3, 4, 5, 8, 131}
	ns := []int{0, 1, 7, 8, 9, 15, 16, 17, 64, 73}
	fs := []int{0, 1, 2, 50, 64}
	threads := []int{1, 2, 3, 8, 1000}
	rng := rand.New(rand.NewSource(22))
	check := func(m, n, f, th int) {
		t.Helper()
		// A is a row view into a larger matrix, as BMM's chunks are.
		off := rng.Intn(3)
		a := randomMatrix(rng, m+off+1, f).RowSlice(off, off+m)
		b := randomMatrix(rng, n, f)
		want := mat.New(m, n)
		scalarGemmNT(a, b, want)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if d := DotFrom(0, a.Row(i), b.Row(j)); want.At(i, j) != d {
					t.Fatalf("m=%d n=%d f=%d: scalar C[%d][%d] = %v, DotFrom %v", m, n, f, i, j, want.At(i, j), d)
				}
			}
		}
		got := mat.New(m, n)
		for i := range got.Data() {
			got.Data()[i] = 999
		}
		if th == 1 {
			GemmNT(a, b, got)
		} else {
			GemmNTParallel(a, b, got, th)
		}
		packed := mat.New(m, n)
		GemmNTPacked(a, Pack(b, m), packed, th)
		if !got.Equal(want, 0) || !packed.Equal(want, 0) {
			t.Fatalf("m=%d n=%d f=%d threads=%d: Equal(want, 0) is false", m, n, f, th)
		}
		for i, w := range want.Data() {
			if got.Data()[i] != w || packed.Data()[i] != w {
				t.Fatalf("m=%d n=%d f=%d threads=%d: element %d = %v / %v, want %v",
					m, n, f, th, i, got.Data()[i], packed.Data()[i], w)
			}
		}
	}
	for _, m := range ms {
		for _, n := range ns {
			for _, f := range fs {
				check(m, n, f, threads[rng.Intn(len(threads))])
			}
		}
	}
	for i := 0; i < 200; i++ {
		check(rng.Intn(300), rng.Intn(150), rng.Intn(70), threads[rng.Intn(len(threads))])
	}
}

// TestPackSkipsWhatTheKernelCannotUse pins the conditions under which Pack
// copies nothing, so a one-user query never pays for panels it cannot read.
func TestPackSkipsWhatTheKernelCannotUse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range []struct {
		n, f, aRows int
		packed      bool
	}{
		{64, 10, kernelRows, true},
		{64, 10, kernelRows - 1, false},
		{kernelCols - 1, 10, 100, false},
		{64, 0, 100, false},
		{kernelCols + 3, 10, 100, true},
	} {
		p := Pack(randomMatrix(rng, tc.n, tc.f), tc.aRows)
		if want := tc.packed && useKernel; (p.panels != nil) != want {
			t.Errorf("Pack(%dx%d, %d rows): packed = %v, want %v", tc.n, tc.f, tc.aRows, p.panels != nil, want)
		}
		if p.panels != nil && len(p.panels) != tc.n&^(kernelCols-1)*tc.f {
			t.Errorf("Pack(%dx%d): %d packed values", tc.n, tc.f, len(p.panels))
		}
	}
}

func TestGemmNTOverwritesC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 5, 4)
	b := randomMatrix(rng, 6, 4)
	c := mat.New(5, 6)
	for i := range c.Data() {
		c.Data()[i] = 999 // garbage that must be overwritten, not accumulated
	}
	GemmNT(a, b, c)
	want := mat.New(5, 6)
	NaiveGemmNT(a, b, want)
	if !c.Equal(want, 1e-9) {
		t.Fatal("GemmNT must overwrite C")
	}
}

func TestGemmNTParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 137, 33)
	b := randomMatrix(rng, 91, 33)
	want := mat.New(137, 91)
	GemmNT(a, b, want)
	for _, threads := range []int{1, 2, 3, 4, 8, 1000} {
		got := mat.New(137, 91)
		GemmNTParallel(a, b, got, threads)
		if !got.Equal(want, 0) {
			t.Fatalf("threads=%d: parallel result differs from serial", threads)
		}
	}
	// threads > rows and threads <= 0 must both degrade gracefully.
	got := mat.New(137, 91)
	GemmNTParallel(a, b, got, -2)
	if !got.Equal(want, 0) {
		t.Fatal("threads<=0 should fall back to serial")
	}
}

func TestGemmShapePanics(t *testing.T) {
	a := mat.New(2, 3)
	b := mat.New(4, 3)
	for _, fn := range []func(){
		func() { GemmNT(a, mat.New(4, 2), mat.New(2, 4)) }, // inner mismatch
		func() { GemmNT(a, b, mat.New(3, 4)) },             // bad C rows
		func() { GemmNT(a, b, mat.New(2, 5)) },             // bad C cols
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected shape panic")
				}
			}()
			fn()
		}()
	}
}

func TestGemmEmptyOperands(t *testing.T) {
	a := mat.New(0, 5)
	b := mat.New(3, 5)
	c := mat.New(0, 3)
	GemmNT(a, b, c) // must not panic
	GemmNTParallel(a, b, c, 4)
}

func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, y)
	}
	_ = s
}

func benchGemm(b *testing.B, m, n, k int, kernel func(a, bb, c *mat.Matrix)) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, m, k)
	bb := randomMatrix(rng, n, k)
	c := mat.New(m, n)
	b.SetBytes(int64(8 * m * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(a, bb, c)
	}
	flops := 2 * float64(m) * float64(n) * float64(k) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkGemmBlockedVsNaive quantifies the "constant factor" §II-B builds
// its whole argument on: blocked beats naive on the same FLOP count, and the
// SIMD kernel ("blocked"; equal to "scalar" where it is not available) beats
// the scalar tile.
func BenchmarkGemmBlockedVsNaive(b *testing.B) {
	b.Run("blocked", func(b *testing.B) { benchGemm(b, 512, 512, 64, GemmNT) })
	b.Run("scalar", func(b *testing.B) { benchGemm(b, 512, 512, 64, scalarGemmNT) })
	b.Run("naive", func(b *testing.B) { benchGemm(b, 512, 512, 64, NaiveGemmNT) })
	b.Run("parallel", func(b *testing.B) {
		benchGemm(b, 512, 512, 64, func(a, bb, c *mat.Matrix) {
			GemmNTParallel(a, bb, c, runtime.GOMAXPROCS(0))
		})
	})
}

// TestScanMatchesScalarPredicate is Scan's oracle: for both rules, every
// length 0–40 and every start offset 0–7 into a larger row (so the AVX2
// body sees unaligned loads and every split between its 16-score blocks
// and the scalar tail), the index returned is the first one the scalar
// predicate does not skip. Scores and thresholds are drawn from NaN, ±Inf,
// ±0, values tying the threshold and random ones. It runs on the default
// path and on the portable loop.
func TestScanMatchesScalarPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1}
	draw := func(thr float64) float64 {
		switch r := rng.Intn(10); {
		case r < 2:
			return specials[rng.Intn(len(specials))]
		case r < 4:
			return thr
		default:
			return rng.NormFloat64()
		}
	}
	skips := func(s, thr float64, rule SkipRule) bool {
		if rule == SkipAtOrBelow {
			return s <= thr
		}
		return s < thr
	}
	check := func(path string) {
		for _, rule := range []SkipRule{SkipBelow, SkipAtOrBelow} {
			for n := 0; n <= 40; n++ {
				for off := 0; off < 8; off++ {
					for rep := 0; rep < 12; rep++ {
						thr := specials[rng.Intn(len(specials))]
						if rep%2 == 0 {
							thr = rng.NormFloat64()
						}
						row := make([]float64, off+n)
						for j := range row {
							// Mostly skippable, so the scan runs long before
							// its first hit; sometimes every score is a hit.
							if rep%3 == 0 {
								row[j] = draw(thr)
							} else {
								row[j] = thr - 1 - rng.Float64()
								if rng.Intn(n+1) == 0 {
									row[j] = draw(thr)
								}
							}
						}
						scores := row[off:]
						want := len(scores)
						for j, s := range scores {
							if !skips(s, thr, rule) {
								want = j
								break
							}
						}
						if got := Scan(scores, thr, rule); got != want {
							t.Fatalf("%s: rule %d, n=%d off=%d thr=%v: Scan = %d, want %d (scores %v)",
								path, rule, n, off, thr, got, want, scores)
						}
					}
				}
			}
		}
	}
	check("default")
	if !WithScalarPath(func() { check("portable") }) {
		t.Log("no AVX2 scan in this build or on this CPU: the portable loop ran twice")
	}
}

// TestGemmNTPackedColsMatchesWhole pins the column-window multiply: every
// window a caller may ask for, over Repack'd and PackRows'd operands, holds
// exactly the columns of the whole product; a window that splits a panel
// panics. The operands are packed for eight rows, so an A of 1–3 rows (or
// the m%4 rows of a taller one) runs padded in the kernel, with f below and
// above the padded tile's stack buffer.
func TestGemmNTPackedColsMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, f := range []int{11, 130} {
		for _, n := range []int{1, 7, 8, 17, 64, 130} {
			for _, m := range []int{1, 3, 4, 9} {
				checkPackedCols(t, rng, m, n, f)
			}
		}
	}
	p := Pack(randomMatrix(rng, 20, 3), 4)
	for _, w := range [][2]int{{4, 8}, {0, 12}, {8, 21}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window [%d,%d) of 20 columns did not panic", w[0], w[1])
				}
			}()
			GemmNTPackedCols(mat.New(2, 3), p, mat.New(2, w[1]-w[0]), w[0])
		}()
	}
}

func checkPackedCols(t *testing.T, rng *rand.Rand, m, n, f int) {
	t.Helper()
	a := randomMatrix(rng, m, f)
	src := randomMatrix(rng, 2*n+3, f)
	ids := make([]int32, n)
	for j := range ids {
		ids[j] = int32(rng.Intn(src.Rows()))
	}
	b := src.SelectRows(int32sToInts(ids))
	whole := mat.New(m, n)
	scalarGemmNT(a, b, whole)
	gathered := new(Packed)
	PackRows(gathered, src, ids, 8)
	for _, p := range []*Packed{Pack(b, 8), gathered} {
		got := mat.New(m, n)
		GemmNTPacked(a, p, got, 2)
		if !got.Equal(whole, 0) {
			t.Fatalf("m=%d n=%d f=%d: packed product differs from the scalar tile", m, n, f)
		}
		for j0 := 0; j0 < n; j0 += kernelCols {
			for j1 := j0 + kernelCols; ; j1 += kernelCols {
				j1 = min(j1, n)
				c := mat.New(m, j1-j0)
				GemmNTPackedCols(a, p, c, j0)
				for i := 0; i < m; i++ {
					for j := j0; j < j1; j++ {
						if c.At(i, j-j0) != whole.At(i, j) {
							t.Fatalf("m=%d n=%d f=%d window [%d,%d): C[%d][%d] = %v, want %v",
								m, n, f, j0, j1, i, j, c.At(i, j-j0), whole.At(i, j))
						}
					}
				}
				if j1 == n {
					break
				}
			}
		}
	}
}

func int32sToInts(ids []int32) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out
}
