package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// indexFriendlyModel: tight user clusters + heavy norm skew, so pruning
// indexes dominate BMM.
func indexFriendlyModel(rng *rand.Rand, nUsers, nItems, f int) (*mat.Matrix, *mat.Matrix) {
	centers := mat.New(3, f)
	for i := range centers.Data() {
		centers.Data()[i] = rng.NormFloat64()
	}
	users := mat.New(nUsers, f)
	for i := 0; i < nUsers; i++ {
		c := centers.Row(i % 3)
		row := users.Row(i)
		for j := 0; j < f; j++ {
			row[j] = c[j] + rng.NormFloat64()*0.02
		}
	}
	items := mat.New(nItems, f)
	for i := 0; i < nItems; i++ {
		scale := math.Exp(rng.NormFloat64() * 2)
		row := items.Row(i)
		for j := 0; j < f; j++ {
			row[j] = rng.NormFloat64() * scale
		}
	}
	return users, items
}

// bmmFriendlyModel: isotropic users, uniform norms — nothing to prune.
func bmmFriendlyModel(rng *rand.Rand, nUsers, nItems, f int) (*mat.Matrix, *mat.Matrix) {
	users := mat.New(nUsers, f)
	items := mat.New(nItems, f)
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	for i := range items.Data() {
		items.Data()[i] = rng.NormFloat64()
	}
	return users, items
}

func TestOptimusValidation(t *testing.T) {
	o := NewOptimus(OptimusConfig{})
	if _, _, err := o.Run(nil, nil, 1); err == nil {
		t.Fatal("expected nil-input error")
	}
	rng := rand.New(rand.NewSource(1))
	users, items := bmmFriendlyModel(rng, 10, 20, 4)
	if _, _, err := o.Run(users, items, 0); err == nil {
		t.Fatal("expected k=0 error")
	}
	if _, _, err := o.Run(users, items, 21); err == nil {
		t.Fatal("expected k>|I| error")
	}
	if _, err := o.Measure(users, items, 0); err == nil {
		t.Fatal("expected Measure k error")
	}
}

func TestOptimusSampleSize(t *testing.T) {
	o := NewOptimus(OptimusConfig{SampleFraction: 0.005, L2CacheBytes: 256 << 10})
	// 0.5% of 100k users = 500 < L2 minimum at f=100: 256KiB/800B = 328.
	if got := o.SampleSize(100000, 100); got != 500 {
		t.Fatalf("SampleSize = %d, want 500 (fraction dominates)", got)
	}
	// For a small population the L2 floor dominates.
	if got := o.SampleSize(1000, 100); got != 328 {
		t.Fatalf("SampleSize = %d, want 328 (L2 floor dominates)", got)
	}
	// Capped at n.
	if got := o.SampleSize(50, 100); got != 50 {
		t.Fatalf("SampleSize = %d, want 50 (capped)", got)
	}
}

func TestOptimusResultsAlwaysExact(t *testing.T) {
	// Whatever OPTIMUS picks, the answers must be the true top-K.
	for _, build := range []struct {
		name string
		gen  func(*rand.Rand, int, int, int) (*mat.Matrix, *mat.Matrix)
	}{
		{"index-friendly", indexFriendlyModel},
		{"bmm-friendly", bmmFriendlyModel},
	} {
		build := build
		t.Run(build.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			users, items := build.gen(rng, 300, 200, 8)
			o := NewOptimus(
				OptimusConfig{SampleFraction: 0.05, L2CacheBytes: 1 << 10, Seed: 3},
				NewMaximus(MaximusConfig{Seed: 3}),
				lemp.New(lemp.Config{}),
			)
			dec, res, err := o.Run(users, items, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.VerifyAll(users, items, res, 5, 1e-9); err != nil {
				t.Fatalf("winner %s produced wrong results: %v", dec.Winner, err)
			}
			if dec.SampleSize <= 0 || len(dec.Estimates) != 3 {
				t.Fatalf("decision malformed: %+v", dec)
			}
		})
	}
}

// measureWinner asserts that the optimizer picks `want` on the given input,
// re-measuring a wrong answer up to two more times: the decision is a
// wall-clock measurement, so on a loaded or race-instrumented runner a
// single sample can flip a close crossover. A real regime regression fails
// every attempt; scheduler noise does not.
func measureWinner(t *testing.T, mk func() *Optimus, users, items *mat.Matrix, k int, want string) {
	t.Helper()
	const attempts = 3
	for attempt := 1; ; attempt++ {
		dec, err := mk().Measure(users, items, k)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Winner == want {
			return
		}
		bmmE, _ := dec.EstimateFor("BMM")
		maxE, _ := dec.EstimateFor("MAXIMUS")
		if attempt == attempts {
			t.Fatalf("winner = %s, want %s in %d attempts (BMM est %v, MAXIMUS est %v)",
				dec.Winner, want, attempts, bmmE.Total, maxE.Total)
		}
		t.Logf("attempt %d: winner %s, want %s (BMM est %v, MAXIMUS est %v); re-measuring",
			attempt, dec.Winner, want, bmmE.Total, maxE.Total)
	}
}

func TestOptimusPicksIndexOnPrunableInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	users, items := indexFriendlyModel(rng, 2000, 4000, 16)
	measureWinner(t, func() *Optimus {
		return NewOptimus(
			OptimusConfig{SampleFraction: 0.02, L2CacheBytes: 4 << 10, Seed: 5},
			NewMaximus(MaximusConfig{Seed: 5}),
		)
	}, users, items, 1, "MAXIMUS")
}

func TestOptimusPicksBMMOnUnprunableInput(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Isotropic data with many factors: index walks visit nearly all items,
	// per-item dot costs equal BMM's, but without batching efficiency.
	users, items := bmmFriendlyModel(rng, 2000, 1500, 32)
	measureWinner(t, func() *Optimus {
		return NewOptimus(
			OptimusConfig{SampleFraction: 0.02, L2CacheBytes: 4 << 10, Seed: 6},
			NewMaximus(MaximusConfig{Seed: 6}),
		)
	}, users, items, 10, "BMM")
}

func TestOptimusTTestEarlyStopsOnLopsidedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	users, items := indexFriendlyModel(rng, 1500, 3000, 12)
	idx := fexipro.New(fexipro.Config{}) // point-query: t-test eligible
	o := NewOptimus(OptimusConfig{
		SampleFraction: 0.2, // large sample so early stopping is visible
		L2CacheBytes:   1 << 10,
		Seed:           7,
	}, idx)
	dec, err := o.Measure(users, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	est, ok := dec.EstimateFor("FEXIPRO-SI")
	if !ok {
		t.Fatal("missing FEXIPRO estimate")
	}
	if !est.EarlyStopped {
		t.Fatalf("t-test did not stop early on a lopsided input (examined %d of %d)",
			est.Examined, dec.SampleSize)
	}
	if est.Examined >= dec.SampleSize {
		t.Fatal("early stop flag set but full sample examined")
	}

	// Ablation: with the t-test disabled the full sample must be examined.
	noTT := NewOptimus(OptimusConfig{
		SampleFraction: 0.2, L2CacheBytes: 1 << 10, Seed: 7, DisableTTest: true,
	}, fexipro.New(fexipro.Config{}))
	dec2, err := noTT.Measure(users, items, 1)
	if err != nil {
		t.Fatal(err)
	}
	est2, _ := dec2.EstimateFor("FEXIPRO-SI")
	if est2.EarlyStopped || est2.Examined != dec2.SampleSize {
		t.Fatalf("t-test lesion violated: %+v", est2)
	}
}

func TestOptimusReusesSampleResults(t *testing.T) {
	// The final output must be exact for every user even when the winner's
	// sample answers are stitched in (§IV-A step 4), including an
	// early-stopped point-query winner with partial sample coverage.
	rng := rand.New(rand.NewSource(14))
	users, items := indexFriendlyModel(rng, 400, 800, 10)
	o := NewOptimus(OptimusConfig{
		SampleFraction: 0.25, L2CacheBytes: 1 << 10, Seed: 8,
	}, fexipro.New(fexipro.Config{}))
	dec, res, err := o.Run(users, items, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, items, res, 3, 1e-8); err != nil {
		t.Fatalf("winner %s: %v", dec.Winner, err)
	}
}

func TestOptimusNoIndexesDegeneratesToBMM(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	users, items := bmmFriendlyModel(rng, 100, 50, 6)
	o := NewOptimus(OptimusConfig{SampleFraction: 0.1, L2CacheBytes: 1 << 10, Seed: 9})
	dec, res, err := o.Run(users, items, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Winner != "BMM" {
		t.Fatalf("winner = %s with no indexes", dec.Winner)
	}
	if err := mips.VerifyAll(users, items, res, 2, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestOptimusThreeWay(t *testing.T) {
	// Table II bottom row: BMM + LEMP + MAXIMUS. The decision must be well
	// formed and the results exact.
	rng := rand.New(rand.NewSource(16))
	users, items := indexFriendlyModel(rng, 300, 400, 8)
	o := NewOptimus(
		OptimusConfig{SampleFraction: 0.1, L2CacheBytes: 1 << 10, Seed: 10},
		NewMaximus(MaximusConfig{Seed: 10}),
		lemp.New(lemp.Config{}),
	)
	dec, res, err := o.Run(users, items, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Estimates) != 3 {
		t.Fatalf("expected 3 estimates, got %d", len(dec.Estimates))
	}
	if err := mips.VerifyAll(users, items, res, 5, 1e-9); err != nil {
		t.Fatal(err)
	}
	if dec.Overhead <= 0 {
		t.Fatal("three-way run must report loser overhead")
	}
	if dec.Elapsed <= 0 {
		t.Fatal("elapsed must be recorded")
	}
}

func TestOptimusDeterministicDecision(t *testing.T) {
	// Same seed, same clearly separated input: the decision must be stable
	// across runs (timing noise must not flip a 10×-scale gap).
	rng := rand.New(rand.NewSource(17))
	users, items := indexFriendlyModel(rng, 1000, 2000, 12)
	for trial := 0; trial < 3; trial++ {
		o := NewOptimus(OptimusConfig{SampleFraction: 0.05, L2CacheBytes: 2 << 10, Seed: 11},
			NewMaximus(MaximusConfig{Seed: 11}))
		dec, err := o.Measure(users, items, 1)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Winner != "MAXIMUS" {
			t.Fatalf("trial %d: winner %s", trial, dec.Winner)
		}
	}
}

// TestMeasureSharedReusesBaseline pins the planner amortization contract:
// one SharedMeasurement threaded through consecutive measurements over the
// same user population keeps the user sample stable and replaces the second
// run's BMM sample query with a rate-synthesized estimate, while a
// user-population change invalidates the cache.
func TestMeasureSharedReusesBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	users, items := testModel(rng, 200, 300, 8)
	_, itemsB := testModel(rng, 2, 150, 8)

	var shared SharedMeasurement
	opt := NewOptimus(OptimusConfig{SampleFraction: 0.1, L2CacheBytes: 1, Seed: 3},
		NewMaximus(MaximusConfig{Seed: 3}))
	dec1, err := opt.MeasureShared(users, items, 5, &shared)
	if err != nil {
		t.Fatal(err)
	}
	bmm1, _ := dec1.EstimateFor("BMM")
	if bmm1.Synthesized {
		t.Fatal("first measurement must be fresh")
	}
	if shared.BMMSecondsPerUserItem <= 0 || shared.Users != users.Rows() || len(shared.SampleIDs) == 0 {
		t.Fatalf("cache not filled: %+v", shared)
	}
	cachedIDs := append([]int(nil), shared.SampleIDs...)
	cachedRate := shared.BMMSecondsPerUserItem

	// Second measurement, different item set (a different shard): sample
	// reused, BMM synthesized from the cached rate scaled by item count.
	opt2 := NewOptimus(OptimusConfig{SampleFraction: 0.1, L2CacheBytes: 1, Seed: 3},
		NewMaximus(MaximusConfig{Seed: 3}))
	dec2, err := opt2.MeasureShared(users, itemsB, 5, &shared)
	if err != nil {
		t.Fatal(err)
	}
	bmm2, _ := dec2.EstimateFor("BMM")
	if !bmm2.Synthesized {
		t.Fatal("second measurement must synthesize BMM from the cached rate")
	}
	wantSample := time.Duration(cachedRate * float64(len(cachedIDs)) * float64(itemsB.Rows()) * float64(time.Second))
	if bmm2.SampleTime != wantSample {
		t.Fatalf("synthesized SampleTime %v, want rate-scaled %v", bmm2.SampleTime, wantSample)
	}
	for i, id := range shared.SampleIDs {
		if id != cachedIDs[i] {
			t.Fatal("sample must be reused verbatim")
		}
	}
	// The winner is built and queryable regardless of synthesis.
	res, err := opt2.Solver(dec2.Winner).QueryAll(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, itemsB, res, 3, 1e-8); err != nil {
		t.Fatal(err)
	}

	// A different user population invalidates the cache.
	moreUsers, itemsC := testModel(rng, 150, 200, 8)
	opt3 := NewOptimus(OptimusConfig{SampleFraction: 0.1, L2CacheBytes: 1, Seed: 3},
		NewMaximus(MaximusConfig{Seed: 3}))
	dec3, err := opt3.MeasureShared(moreUsers, itemsC, 5, &shared)
	if err != nil {
		t.Fatal(err)
	}
	bmm3, _ := dec3.EstimateFor("BMM")
	if bmm3.Synthesized {
		t.Fatal("stale cache (user-count change) must trigger a fresh measurement")
	}
	if shared.Users != moreUsers.Rows() {
		t.Fatalf("cache rebuilt for %d users, want %d", shared.Users, moreUsers.Rows())
	}
}

// answerStub is a batching index that answers top-k queries from a table
// Naive filled at Build, after an optional sleep: an instant rival, or a
// slow one, for the sample race.
type answerStub struct {
	*mips.Naive
	k     int
	delay time.Duration
	rows  [][]topk.Entry // every user's top k
}

func newAnswerStub(k int, delay time.Duration) *answerStub {
	return &answerStub{Naive: mips.NewNaive(), k: k, delay: delay}
}

func (s *answerStub) Name() string  { return "STUB" }
func (s *answerStub) Batches() bool { return true }

func (s *answerStub) Build(users, items *mat.Matrix) error {
	if err := s.Naive.Build(users, items); err != nil {
		return err
	}
	var err error
	s.rows, err = s.Naive.QueryAll(s.k)
	return err
}

func (s *answerStub) Query(ids []int, k int) ([][]topk.Entry, error) {
	return s.QueryCtx(nil, ids, k, mips.QueryOptions{})
}

func (s *answerStub) QueryCtx(ctx context.Context, ids []int, k int, _ mips.QueryOptions) ([][]topk.Entry, error) {
	time.Sleep(s.delay)
	if err := mips.CtxErr(ctx); err != nil {
		return nil, err
	}
	if k != s.k {
		return nil, fmt.Errorf("answerStub holds top-%d answers, asked for %d", s.k, k)
	}
	out := make([][]topk.Entry, len(ids))
	for i, u := range ids {
		out[i] = append([]topk.Entry(nil), s.rows[u]...)
	}
	return out, nil
}

// TestOptimusRaceCutsLosingBMM: against an index that answers its sample at
// once, BMM's sample (a 256 × 2000 × 16 multiply) runs past the deadline and
// is cut; the cut estimate is flagged, answers nobody, and the stub wins.
func TestOptimusRaceCutsLosingBMM(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	users, items := bmmFriendlyModel(rng, 512, 2000, 16)
	o := NewOptimus(OptimusConfig{SampleFraction: 0.5, L2CacheBytes: 1, Seed: 4}, newAnswerStub(5, 0))
	dec, res, err := o.Run(users, items, 5)
	if err != nil {
		t.Fatal(err)
	}
	bmm, _ := dec.EstimateFor("BMM")
	if !bmm.Cut || !bmm.EarlyStopped || bmm.Examined != 0 {
		t.Fatalf("BMM estimate %+v, want cut with nobody examined", bmm)
	}
	if dec.Winner != "STUB" {
		t.Fatalf("winner %s, want STUB", dec.Winner)
	}
	if err := mips.VerifyAll(users, items, res, 5, 1e-9); err != nil {
		t.Fatal(err)
	}
	if dec.Overhead < bmm.SampleTime {
		t.Fatalf("overhead %v does not count BMM's %v up to its cut", dec.Overhead, bmm.SampleTime)
	}
}

// TestOptimusRaceSlowRivalLetsBMMWin: an index whose sample takes 50 ms
// sets a deadline BMM's small sample meets; BMM completes and wins.
func TestOptimusRaceSlowRivalLetsBMMWin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	users, items := bmmFriendlyModel(rng, 200, 120, 8)
	o := NewOptimus(OptimusConfig{SampleFraction: 0.25, L2CacheBytes: 1, Seed: 4}, newAnswerStub(5, 50*time.Millisecond))
	dec, res, err := o.Run(users, items, 5)
	if err != nil {
		t.Fatal(err)
	}
	bmm, _ := dec.EstimateFor("BMM")
	if bmm.Cut || bmm.EarlyStopped || bmm.Examined != dec.SampleSize {
		t.Fatalf("BMM estimate %+v, want the whole sample of %d", bmm, dec.SampleSize)
	}
	if dec.Winner != "BMM" {
		t.Fatalf("winner %s, want BMM", dec.Winner)
	}
	if err := mips.VerifyAll(users, items, res, 5, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestOptimusDisableTTestMeasuresBMMInFull: the A3 lesion turns the race off,
// so even against an instant rival BMM is examined on the whole sample.
func TestOptimusDisableTTestMeasuresBMMInFull(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	users, items := bmmFriendlyModel(rng, 512, 2000, 16)
	o := NewOptimus(OptimusConfig{SampleFraction: 0.5, L2CacheBytes: 1, Seed: 4, DisableTTest: true}, newAnswerStub(5, 0))
	dec, err := o.Measure(users, items, 5)
	if err != nil {
		t.Fatal(err)
	}
	bmm, _ := dec.EstimateFor("BMM")
	if bmm.Cut || bmm.EarlyStopped || bmm.Examined != dec.SampleSize {
		t.Fatalf("BMM estimate %+v, want the whole sample of %d", bmm, dec.SampleSize)
	}
}

// TestChooseNeverPicksCutEstimate: the choice step excludes a cut estimate
// by its flag, not by its time — a lower bound reading below every complete
// estimate still loses.
func TestChooseNeverPicksCutEstimate(t *testing.T) {
	ests := []Estimate{
		{Solver: "BMM", Total: time.Nanosecond, Cut: true, EarlyStopped: true},
		{Solver: "MAXIMUS", Total: 3 * time.Second, Examined: 10},
		{Solver: "LEMP", Total: 2 * time.Second, Examined: 10},
		{Solver: "X", Total: 0, Cut: true, EarlyStopped: true},
	}
	if got := choose(ests); got != 2 {
		t.Fatalf("choose = %d (%s), want 2 (LEMP)", got, ests[got].Solver)
	}
	ests[2].Total = 3 * time.Second
	if got := choose(ests); got != 1 {
		t.Fatalf("tie: choose = %d, want the earlier estimate 1", got)
	}
}
