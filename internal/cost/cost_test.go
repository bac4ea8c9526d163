package cost

import (
	"testing"
	"time"

	"optimus/internal/blas"
	"optimus/internal/mat"
)

func TestGemmFLOPs(t *testing.T) {
	if got := GemmFLOPs(10, 20, 5); got != 2000 {
		t.Fatalf("GemmFLOPs = %v, want 2000", got)
	}
}

func TestCalibrateValidation(t *testing.T) {
	if _, err := Calibrate(0, 10, 10, 1, 1); err == nil {
		t.Fatal("expected error for zero probe dimension")
	}
}

func TestCalibrateAndPredict(t *testing.T) {
	m, err := Calibrate(256, 256, 32, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.FlopsPerSecond <= 0 {
		t.Fatalf("non-positive FLOP rate %v", m.FlopsPerSecond)
	}
	if m.PredictGemm(100, 100, 10) <= 0 {
		t.Fatal("prediction must be positive")
	}
	// Linearity: doubling users doubles the prediction.
	p1 := m.PredictGemm(100, 200, 50)
	p2 := m.PredictGemm(200, 200, 50)
	if p2 < p1*19/10 || p2 > p1*21/10 {
		t.Fatalf("prediction not linear: %v vs %v", p1, p2)
	}
}

// TestModelAccuracyOnGemm reproduces the §IV-A claim at repo scale: the
// FLOP model predicts a same-regime GEMM within a modest relative error.
// The paper reports 5% on MKL; a shared machine is noisier, so the assertion
// is loose (50%) — the ablation-costmodel experiment reports the actual
// figure. A probe lasts about a millisecond and the machine's slow spells
// tens of them, so calibrations and measurements alternate and each side
// keeps its fastest reading: a spell then slows both sides or neither.
func TestModelAccuracyOnGemm(t *testing.T) {
	// Target workload of a similar regime.
	a := mat.New(768, 64)
	b := mat.New(384, 64)
	for i := range a.Data() {
		a.Data()[i] = float64(i%11) * 0.1
	}
	for i := range b.Data() {
		b.Data()[i] = float64(i%13) * 0.1
	}
	c := mat.New(768, 384)
	blas.GemmNT(a, b, c) // warm
	var model *Model
	best := time.Duration(1 << 62)
	for round := 0; round < 6; round++ {
		m, err := Calibrate(512, 512, 64, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if model == nil || m.FlopsPerSecond > model.FlopsPerSecond {
			model = m
		}
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			blas.GemmNT(a, b, c)
			best = min(best, time.Since(t0))
		}
	}
	pred := model.PredictGemm(768, 384, 64)
	if re := RelativeError(pred, best); re > 0.5 {
		t.Fatalf("model error %.1f%% (predicted %v, measured %v)", re*100, pred, best)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110*time.Millisecond, 100*time.Millisecond); got < 0.099 || got > 0.101 {
		t.Fatalf("RelativeError = %v, want 0.1", got)
	}
	if got := RelativeError(90*time.Millisecond, 100*time.Millisecond); got < 0.099 || got > 0.101 {
		t.Fatalf("RelativeError symmetric = %v, want 0.1", got)
	}
	if RelativeError(time.Second, 0) != 0 {
		t.Fatal("zero actual must not divide by zero")
	}
}

func TestPredictWithZeroRate(t *testing.T) {
	var m Model
	if m.PredictGemm(10, 10, 10) != 0 {
		t.Fatal("zero-rate model must predict 0")
	}
}
