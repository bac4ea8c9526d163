package fexipro

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
	"optimus/internal/mips"
)

// testModel builds correlated inputs (so the SVD split is meaningful) with
// log-normal item-norm skew (so length pruning fires).
func testModel(rng *rand.Rand, nUsers, nItems, f int) (*mat.Matrix, *mat.Matrix) {
	users := mat.New(nUsers, f)
	items := mat.New(nItems, f)
	fill := func(m *mat.Matrix, scaleRows bool) {
		for i := 0; i < m.Rows(); i++ {
			base := rng.NormFloat64()
			scale := 1.0
			if scaleRows {
				scale = math.Exp(rng.NormFloat64() * 0.8)
			}
			row := m.Row(i)
			for j := range row {
				row[j] = (base + rng.NormFloat64()*0.5) * scale
			}
		}
	}
	fill(users, false)
	fill(items, true)
	return users, items
}

func TestBuildValidation(t *testing.T) {
	x := New(Config{})
	if err := x.Build(nil, nil); err == nil {
		t.Fatal("expected error for nil inputs")
	}
	if err := x.Build(mat.New(3, 2), mat.New(3, 5)); err == nil {
		t.Fatal("expected error for factor mismatch")
	}
}

func TestQueryBeforeBuild(t *testing.T) {
	x := New(Config{})
	if _, err := x.Query([]int{0}, 1); err == nil {
		t.Fatal("expected error")
	}
	if _, err := x.QueryAll(1); err == nil {
		t.Fatal("expected error")
	}
}

func TestVariantNames(t *testing.T) {
	if New(Config{Variant: SI}).Name() != "FEXIPRO-SI" {
		t.Fatal("SI name wrong")
	}
	if New(Config{Variant: SIR}).Name() != "FEXIPRO-SIR" {
		t.Fatal("SIR name wrong")
	}
	if New(Config{}).Batches() {
		t.Fatal("FEXIPRO must be a point-query (non-batching) solver")
	}
	var _ mips.Solver = New(Config{})
}

// TestExactness: both variants must return true top-K for every user.
func TestExactness(t *testing.T) {
	for _, variant := range []Variant{SI, SIR} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				nUsers := 3 + rng.Intn(8)
				nItems := 5 + rng.Intn(60)
				dim := 2 + rng.Intn(20)
				users, items := testModel(rng, nUsers, nItems, dim)
				x := New(Config{Variant: variant})
				if err := x.Build(users, items); err != nil {
					return false
				}
				k := 1 + rng.Intn(minInt(5, nItems))
				got, err := x.QueryAll(k)
				if err != nil {
					return false
				}
				return mips.VerifyAll(users, items, got, k) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestIntegerBoundIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users, items := testModel(rng, 4, 25, 3+rng.Intn(12))
		x := New(Config{QuantLevels: 64}) // coarse quantization stresses the bound
		if err := x.Build(users, items); err != nil {
			return false
		}
		for u := 0; u < users.Rows(); u++ {
			for s := 0; s < items.Rows(); s++ {
				bound, truth := x.intBound(u, s)
				if bound < truth-1e-9*(1+math.Abs(truth)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDBoundIsUpperBound(t *testing.T) {
	for _, variant := range []Variant{SI, SIR} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				users, items := testModel(rng, 4, 25, 3+rng.Intn(12))
				x := New(Config{Variant: variant, EnergyFraction: 0.5})
				if err := x.Build(users, items); err != nil {
					return false
				}
				for u := 0; u < users.Rows(); u++ {
					for s := 0; s < items.Rows(); s++ {
						bound, truth := x.svdBound(u, s)
						if bound < truth-1e-9*(1+math.Abs(truth)) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSplitRespectsEnergyFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	users, items := testModel(rng, 20, 200, 24)
	// Highly correlated data: a small prefix carries 70% of energy.
	x := New(Config{EnergyFraction: 0.7})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if x.SplitH() < 1 || x.SplitH() > 24 {
		t.Fatalf("split h = %d out of range", x.SplitH())
	}
	if x.SplitH() > 12 {
		t.Fatalf("correlated data should concentrate energy: h = %d", x.SplitH())
	}
	// EnergyFraction = 1 must keep every dimension.
	full := New(Config{EnergyFraction: 1.0})
	if err := full.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if full.SplitH() != 24 {
		t.Fatalf("full energy split h = %d, want 24", full.SplitH())
	}
}

func TestAgreesWithNaiveScores(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	users, items := testModel(rng, 30, 120, 10)
	x := New(Config{Variant: SIR})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	got, err := x.QueryAll(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, items, got, 7); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users, items := testModel(rng, 120, 150, 8)
	serial := New(Config{Threads: 1})
	parallel := New(Config{Threads: 4})
	if err := serial.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Build(users, items); err != nil {
		t.Fatal(err)
	}
	a, err := serial.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if !slices.Equal(a[u], b[u]) {
			t.Fatalf("user %d differs across thread counts", u)
		}
	}
}

func TestBadInputsAtQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	users, items := testModel(rng, 5, 20, 6)
	x := New(Config{})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := x.QueryAll(0); err == nil {
		t.Fatal("expected k=0 error")
	}
	if _, err := x.QueryAll(21); err == nil {
		t.Fatal("expected k>|I| error")
	}
	if _, err := x.Query([]int{5}, 1); err == nil {
		t.Fatal("expected user-range error")
	}
}

func TestRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	users1, items1 := testModel(rng, 10, 30, 6)
	users2, items2 := testModel(rng, 6, 15, 4)
	x := New(Config{Variant: SIR})
	if err := x.Build(users1, items1); err != nil {
		t.Fatal(err)
	}
	if err := x.Build(users2, items2); err != nil {
		t.Fatal(err)
	}
	got, err := x.QueryAll(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users2, items2, got, 3); err != nil {
		t.Fatal(err)
	}
	if x.BuildTime() <= 0 {
		t.Fatal("BuildTime must be recorded")
	}
}

func TestZeroItemsMatrixDegenerate(t *testing.T) {
	// All-zero items: every score is 0; exactness must still hold.
	users := mat.New(3, 4)
	items := mat.New(10, 4)
	for i := range users.Data() {
		users.Data()[i] = 1
	}
	x := New(Config{})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	got, err := x.QueryAll(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, items, got, 2); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := mat.New(5, 7)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	scale := quantScale(m.MaxAbs(), 2048)
	q, errs := quantize(m, scale)
	if len(q) != 35 || len(errs) != 5 {
		t.Fatal("quantize output shapes wrong")
	}
	for r := 0; r < 5; r++ {
		var ss float64
		for j := 0; j < 7; j++ {
			d := m.At(r, j) - float64(q[r*7+j])/scale
			ss += d * d
			// Each coordinate error is at most half a quantization step.
			if math.Abs(d) > 0.5/scale+1e-15 {
				t.Fatalf("coordinate error %v exceeds half-step %v", d, 0.5/scale)
			}
		}
		if math.Abs(errs[r]-math.Sqrt(ss)) > 1e-12 {
			t.Fatalf("row %d error norm mismatch", r)
		}
	}
	if quantScale(0, 100) != 1 {
		t.Fatal("zero max must give scale 1")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
