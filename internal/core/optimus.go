package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/stats"
	"optimus/internal/topk"
)

// OptimusConfig controls the online optimizer (§IV).
type OptimusConfig struct {
	// SampleFraction of users measured per strategy. The paper uses ~0.5%
	// for its ≥480k-user models; the default matches.
	SampleFraction float64
	// L2CacheBytes is the only hardware knowledge OPTIMUS assumes (§IV): the
	// user sample must occupy at least the L2 cache so the BMM measurement
	// exhibits the blocked kernel's real throughput rather than degraded
	// matrix–vector behaviour. Default 256 KiB, the paper's machine.
	L2CacheBytes int
	// DisableTTest turns off early stopping of every kind (ablation A3):
	// point-query indexes skip the incremental t-test, and the sample race
	// that cuts a batching candidate — BMM included — once it has lost is
	// off, so every strategy is measured on the whole sample.
	DisableTTest bool
	// Seed drives sample selection.
	Seed int64
	// Threads is the parallelism of the whole run; 0 (the zero value)
	// defers to the package-wide parallel.Threads() default, normally all
	// cores. Every candidate solver that implements mips.ThreadSetter is
	// aligned to this value before measurement, so strategies are measured
	// at the same parallelism they would run at — extrapolating a serial
	// sample to a parallel final pass would bias the crossover decision.
	Threads int
}

// DefaultOptimusConfig returns the paper's settings. Threads stays 0 —
// "follow the package-wide parallel.Threads() default" — which NewOptimus
// resolves at construction.
func DefaultOptimusConfig() OptimusConfig {
	return OptimusConfig{
		SampleFraction: 0.005,
		L2CacheBytes:   256 << 10,
	}
}

// The incremental t-test that stops a point-query index's sample early
// (§IV-A): significance level, and the per-user measurements it needs first.
const (
	tTestAlpha           = 0.05
	minTTestObservations = 8
)

// Estimate is one strategy's sampled runtime projection.
type Estimate struct {
	Solver string
	// BuildTime is the measured index construction cost (zero for BMM).
	BuildTime time.Duration
	// SampleTime is the measured query time over the examined sample users;
	// for a Cut estimate, the time spent up to the cut.
	SampleTime time.Duration
	// Examined is how many sample users were actually measured: less than
	// the sample size when the t-test stopped early, and 0 when the
	// candidate was Cut (a batching query answers all or nothing).
	Examined int
	// Total is the extrapolated full-population query time. For a Cut
	// estimate it is only a lower bound — SampleTime extrapolated as if the
	// whole sample had finished by the cut.
	Total time.Duration
	// EarlyStopped reports whether measurement stopped before the whole
	// sample: the incremental t-test separated a point-query index from
	// the reference, or the estimate was Cut.
	EarlyStopped bool
	// Cut reports the sample race stopped this batching candidate: its
	// sample ran past the fastest completed sample, so it had already
	// lost. A cut estimate never wins, whatever its Total reads.
	Cut bool
	// Synthesized reports the estimate was derived from a shared baseline
	// rate (MeasureShared) instead of a fresh sample query.
	Synthesized bool
}

// SharedMeasurement carries the measurement state reusable across related
// OPTIMUS runs — the amortization the per-shard planner applies. Two costs
// repeat identically (or near-identically) when the same user population is
// planned shard after shard: drawing the user sample, and measuring the BMM
// baseline. The sample depends only on (seed, |U|), so it is cached
// verbatim; BMM's sampled throughput is a dense GEMM whose per-(user·item)
// rate is item-set independent to first order, so one fresh measurement
// yields a rate that later runs scale by their own item count instead of
// re-querying. (The harvest portion varies mildly with k and score skew;
// this is a planning estimate, traded exactly like the paper trades sample
// size against decision accuracy in §IV-A.)
//
// The zero value means "nothing cached yet"; MeasureShared fills it on the
// first run and reuses it afterwards. A user-count change invalidates the
// cache; so must any change to measurement conditions the rate bakes in —
// the planner resets it on SetThreads. Not safe for concurrent use.
type SharedMeasurement struct {
	// Users is the user-row count the cache was built for; a mismatch
	// invalidates it.
	Users int
	// SampleIDs is the reusable user sample.
	SampleIDs []int
	// BMMSecondsPerUserItem is BMM's measured sample throughput, sample
	// seconds / (examined users × items); > 0 enables baseline reuse.
	BMMSecondsPerUserItem float64
}

// Decision is the outcome of one OPTIMUS run.
type Decision struct {
	// Winner is the chosen strategy's name.
	Winner string
	// Estimates holds one entry per strategy, BMM first.
	Estimates []Estimate
	// SampleSize is the number of users drawn (≥ the L2 minimum).
	SampleSize int
	// Overhead is the optimization cost not recouped by the winner: building
	// losing indexes plus measuring losing strategies, a cut one up to its
	// cut. (The winner's sampled results are reused, so its measurement is
	// useful work.)
	Overhead time.Duration
	// Elapsed is the total wall-clock of the Run call, measurement and final
	// execution included.
	Elapsed time.Duration
}

// EstimateFor returns the estimate for a named strategy.
func (d *Decision) EstimateFor(name string) (Estimate, bool) {
	for _, e := range d.Estimates {
		if e.Solver == name {
			return e, true
		}
	}
	return Estimate{}, false
}

// Optimus selects online between blocked matrix multiply and one or more
// index strategies (§IV-A): it constructs every candidate index (cheap,
// Fig 4), measures each strategy on a small user sample, extrapolates, then
// completes the batch job with the winner, reusing the winner's sampled
// results.
//
// Every strategy is measured on the same sample, so a batching strategy has
// lost as soon as its sample takes longer than the fastest completed one.
// The measurement is a race that stops it there: batching indexes run first
// in the given order, each after the first under a deadline equal to the
// fastest completed sample so far; BMM runs next under the same deadline;
// point-query indexes run last, per user, with the fastest completed
// per-user time as the t-test reference. Stopping a loser changes no
// decision, only its cost. DisableTTest turns the race off, and so does a
// MeasureShared call that fills an empty cache, which needs BMM's
// full-sample rate.
type Optimus struct {
	cfg     OptimusConfig
	bmm     *BMM
	indexes []mips.Solver
}

// NewOptimus returns an optimizer choosing between BMM and the given
// (unbuilt) index solvers. With no indexes it degenerates to plain BMM.
// Zero-valued config fields fall back to defaults.
func NewOptimus(cfg OptimusConfig, indexes ...mips.Solver) *Optimus {
	def := DefaultOptimusConfig()
	if cfg.SampleFraction <= 0 || cfg.SampleFraction > 1 {
		cfg.SampleFraction = def.SampleFraction
	}
	if cfg.L2CacheBytes <= 0 {
		cfg.L2CacheBytes = def.L2CacheBytes
	}
	cfg.Threads = parallel.Resolve(cfg.Threads)
	return &Optimus{
		cfg:     cfg,
		bmm:     NewBMM(BMMConfig{Threads: cfg.Threads}),
		indexes: indexes,
	}
}

// SampleSize returns the sample cardinality for n users with f factors:
// max(SampleFraction·n, the number of user rows needed to fill L2), capped
// at n.
func (o *Optimus) SampleSize(n, f int) int {
	s := int(math.Ceil(o.cfg.SampleFraction * float64(n)))
	l2min := (o.cfg.L2CacheBytes + 8*f - 1) / (8 * f)
	if s < l2min {
		s = l2min
	}
	if s < 2 {
		s = 2
	}
	if s > n {
		s = n
	}
	return s
}

// Run executes the full OPTIMUS pipeline for batch top-k over all users:
// build indexes, sample, measure, decide, and finish with the winner.
// The returned results cover every user in order.
func (o *Optimus) Run(users, items *mat.Matrix, k int) (*Decision, [][]topk.Entry, error) {
	start := time.Now()
	if err := mips.ValidateInputs(users, items); err != nil {
		return nil, nil, err
	}
	if err := mips.ValidateK(k, items.Rows()); err != nil {
		return nil, nil, err
	}
	dec, sampleIDs, sampleResults, err := o.measure(users, items, k, nil)
	if err != nil {
		return nil, nil, err
	}

	// Execute the winner over the remaining users, reusing its sampled
	// results (§IV-A step 4).
	winner := o.solverByName(dec.Winner)
	winnerEst, _ := dec.EstimateFor(dec.Winner)
	n := users.Rows()
	results := make([][]topk.Entry, n)
	reused := 0
	for i, u := range sampleIDs {
		if i >= winnerEst.Examined {
			break
		}
		results[u] = sampleResults[dec.Winner][i]
		reused++
	}
	var remaining []int
	for u := 0; u < n; u++ {
		if results[u] == nil {
			remaining = append(remaining, u)
		}
	}
	if len(remaining) > 0 {
		rest, err := winner.Query(remaining, k)
		if err != nil {
			return nil, nil, fmt.Errorf("core: optimus final pass: %w", err)
		}
		for i, u := range remaining {
			results[u] = rest[i]
		}
	}
	dec.Elapsed = time.Since(start)
	return dec, results, nil
}

// Measure runs index construction and sampled measurement only — the Fig 7
// experiment and Table II's overhead accounting use this entry point.
func (o *Optimus) Measure(users, items *mat.Matrix, k int) (*Decision, error) {
	return o.MeasureShared(users, items, k, nil)
}

// MeasureShared is Measure with cross-run amortization: a non-nil shared
// cache substitutes the stored user sample and BMM baseline rate for fresh
// measurement (and is filled by the first run that finds it empty or
// stale). The per-shard planner passes one cache across all its shards,
// cutting plan time roughly in half — BMM's sample query was the one
// measurement repeated identically per shard. Each batching sample it does
// query is timed twice, keeping the faster: the rates it measures outlive
// the call, so a one-off stall must not set them. A decision whose BMM arm
// came from the cache reports Synthesized on that estimate. Unlike Run, the
// shared path never reuses BMM sampled results (there are none); callers
// querying the winner afterwards pay its full pass, which is what the
// planner does anyway.
func (o *Optimus) MeasureShared(users, items *mat.Matrix, k int, shared *SharedMeasurement) (*Decision, error) {
	if err := mips.ValidateInputs(users, items); err != nil {
		return nil, err
	}
	if err := mips.ValidateK(k, items.Rows()); err != nil {
		return nil, err
	}
	dec, _, _, err := o.measure(users, items, k, shared)
	return dec, err
}

// Solver returns the candidate with the given strategy name, falling back
// to the BMM arm for unknown names. After Measure, Solver(decision.Winner)
// is the built winner, ready to finish the batch — the per-shard planner in
// internal/shard retrieves each shard's chosen solver this way.
func (o *Optimus) Solver(name string) mips.Solver { return o.solverByName(name) }

func (o *Optimus) solverByName(name string) mips.Solver {
	if name == o.bmm.Name() {
		return o.bmm
	}
	for _, idx := range o.indexes {
		if idx.Name() == name {
			return idx
		}
	}
	return o.bmm
}

// measure builds all candidates, samples users, and produces the decision
// plus the per-strategy sampled results for reuse. A non-nil shared cache
// is consulted for the sample and the BMM baseline, and refreshed when
// empty or stale (see SharedMeasurement).
func (o *Optimus) measure(users, items *mat.Matrix, k int, shared *SharedMeasurement) (*Decision, []int, map[string][][]topk.Entry, error) {
	n := users.Rows()
	sampleSize := o.SampleSize(n, users.Cols())
	if shared != nil && shared.Users != n {
		*shared = SharedMeasurement{Users: n}
	}
	var sampleIDs []int
	if shared != nil && len(shared.SampleIDs) == sampleSize {
		sampleIDs = shared.SampleIDs
	} else {
		rng := rand.New(rand.NewSource(o.cfg.Seed))
		sampleIDs = stats.SampleWithoutReplacement(rng, n, sampleSize)
		if shared != nil {
			shared.SampleIDs = sampleIDs
		}
	}

	// Align every candidate to the run's parallelism before any clock
	// starts: the sampled measurements are extrapolated to the full batch,
	// so they must be taken at the thread count the final pass will use.
	for _, s := range append([]mips.Solver{o.bmm}, o.indexes...) {
		if ts, ok := s.(mips.ThreadSetter); ok {
			ts.SetThreads(o.cfg.Threads)
		}
	}

	if err := o.bmm.Build(users, items); err != nil {
		return nil, nil, nil, err
	}
	buildTimes := make([]time.Duration, len(o.indexes))
	for i, idx := range o.indexes {
		t0 := time.Now()
		if err := idx.Build(users, items); err != nil {
			return nil, nil, nil, fmt.Errorf("core: building %s: %w", idx.Name(), err)
		}
		buildTimes[i] = time.Since(t0)
	}

	// Estimates[0] is BMM's, then one per index in the given order, whatever
	// order they are measured in.
	estimates := make([]Estimate, 1+len(o.indexes))
	sampleResults := make(map[string][][]topk.Entry, 1+len(o.indexes))
	filling := shared != nil && shared.BMMSecondsPerUserItem <= 0
	race := &sampleRace{on: !o.cfg.DisableTTest && !filling}
	// A shared measurement outlives the call — its BMM rate scales every
	// later one, and the planner keeps each winner for the life of a
	// shard — so there each batching sample is timed twice and the faster
	// kept: one stall (a preemption, a GC pause) must not decide a plan.
	// With the race on, the second timing is cut at the first.
	timings := 1
	if shared != nil {
		timings = 2
	}
	measureBatch := func(i int, s mips.Solver) error {
		var est Estimate
		var res [][]topk.Entry
		for t := 0; t < timings; t++ {
			e, r, err := race.run(s, sampleIDs, k)
			if err != nil {
				return err
			}
			if t == 0 || !e.Cut && (est.Cut || e.SampleTime < est.SampleTime) {
				est, res = e, r
			}
		}
		est.Solver = s.Name()
		est.Total = time.Duration(stats.Extrapolate(est.SampleTime.Seconds(), sampleSize, n) * float64(time.Second))
		if i > 0 {
			est.BuildTime = buildTimes[i-1]
		}
		estimates[i] = est
		sampleResults[s.Name()] = res
		return nil
	}

	// Batching indexes amortize across users; per-user times are not
	// i.i.d., so each is measured on the whole sample at once (§IV-A).
	for i, idx := range o.indexes {
		if idx.Batches() {
			if err := measureBatch(1+i, idx); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	// BMM on the whole sample (it must batch to show hardware effects) — or,
	// with a warm shared cache, its estimate synthesized from the stored
	// per-(user·item) rate scaled to this run's item count.
	if shared != nil && !filling {
		sample := time.Duration(shared.BMMSecondsPerUserItem *
			float64(sampleSize) * float64(items.Rows()) * float64(time.Second))
		estimates[0] = Estimate{
			Solver:      o.bmm.Name(),
			SampleTime:  sample,
			Examined:    sampleSize,
			Total:       time.Duration(stats.Extrapolate(sample.Seconds(), sampleSize, n) * float64(time.Second)),
			Synthesized: true,
		}
		race.finish(sample)
	} else {
		if err := measureBatch(0, o.bmm); err != nil {
			return nil, nil, nil, err
		}
		if filling {
			shared.BMMSecondsPerUserItem = estimates[0].SampleTime.Seconds() /
				(float64(sampleSize) * float64(items.Rows()))
		}
	}

	for i, idx := range o.indexes {
		if idx.Batches() {
			continue
		}
		// Point-query index: per-user measurement with the incremental
		// one-sample t-test against the fastest completed per-user time.
		est := Estimate{Solver: idx.Name(), BuildTime: buildTimes[i]}
		tt := stats.NewTTest(race.best.Seconds()/float64(sampleSize), tTestAlpha)
		res := make([][]topk.Entry, 0, sampleSize)
		for _, u := range sampleIDs {
			q0 := time.Now()
			r, err := idx.Query([]int{u}, k)
			if err != nil {
				return nil, nil, nil, err
			}
			dt := time.Since(q0)
			est.SampleTime += dt
			res = append(res, r[0])
			tt.Add(dt.Seconds())
			if !o.cfg.DisableTTest && tt.N() >= minTTestObservations && tt.Significant() {
				est.EarlyStopped = true
				break
			}
		}
		est.Examined = len(res)
		est.Total = time.Duration(stats.Extrapolate(est.SampleTime.Seconds(), est.Examined, n) * float64(time.Second))
		if est.Examined == sampleSize {
			race.finish(est.SampleTime)
		}
		sampleResults[idx.Name()] = res
		estimates[1+i] = est
	}

	winner := estimates[choose(estimates)]
	var overhead time.Duration
	for _, e := range estimates {
		if e.Solver != winner.Solver {
			overhead += e.BuildTime + e.SampleTime
		}
	}
	dec := &Decision{
		Winner:     winner.Solver,
		Estimates:  estimates,
		SampleSize: sampleSize,
		Overhead:   overhead,
	}
	return dec, sampleIDs, sampleResults, nil
}

// sampleRace times batching candidates on the whole sample. While on, each
// candidate after the first completed one runs under a deadline equal to
// the fastest completed sample so far, and is cut when it reaches it.
type sampleRace struct {
	on   bool
	best time.Duration // fastest completed sample; 0 until one completes
}

// run measures s on the sample ids. A candidate stopped by the deadline
// comes back Cut and EarlyStopped with no results; any other error is
// returned as is.
func (r *sampleRace) run(s mips.Solver, ids []int, k int) (Estimate, [][]topk.Entry, error) {
	var ctx context.Context // nil: never cancelled
	if r.on && r.best > 0 {
		at := time.Now().Add(r.best)
		timed, cancel := context.WithDeadline(context.TODO(), at)
		defer cancel()
		ctx = clockDeadline{timed, at}
	}
	t0 := time.Now()
	res, err := s.QueryCtx(ctx, ids, k, mips.QueryOptions{})
	est := Estimate{SampleTime: time.Since(t0)}
	if err != nil {
		if ctx != nil && ctx.Err() != nil && errors.Is(err, context.DeadlineExceeded) {
			est.Cut, est.EarlyStopped = true, true
			return est, nil, nil
		}
		return est, nil, err
	}
	est.Examined = len(ids)
	r.finish(est.SampleTime)
	return est, res, nil
}

// finish records a completed sample's time.
func (r *sampleRace) finish(d time.Duration) {
	if r.best == 0 || d < r.best {
		r.best = d
	}
}

// clockDeadline is a deadline context whose Err reads the clock, so a
// solver polling it sees the deadline the moment it passes. A timer context
// alone reports it only once its timer has run, which on a single busy core
// can be a scheduler quantum later than the chunk that should have stopped.
// Done still closes when the embedded context's timer runs.
type clockDeadline struct {
	context.Context
	at time.Time
}

func (c clockDeadline) Err() error {
	if err := c.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.at) {
		return context.DeadlineExceeded
	}
	return nil
}

// choose returns the position of the winning estimate: the smallest
// projected traversal time among those not cut (construction is sunk by
// decision time; it is accounted in Overhead for the losers), the earlier
// estimate on a tie. A cut estimate's Total is only a lower bound, so it is
// never a candidate. The race never cuts the first batching strategy it
// measures, nor a point-query index, so one estimate is always eligible.
func choose(estimates []Estimate) int {
	w := -1
	for i, e := range estimates {
		if !e.Cut && (w < 0 || e.Total < estimates[w].Total) {
			w = i
		}
	}
	return w
}
