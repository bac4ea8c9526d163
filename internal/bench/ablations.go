package bench

import (
	"time"

	"optimus/internal/core"
	"optimus/internal/cost"
	"optimus/internal/fexipro"
	"optimus/internal/kmeans"
	"optimus/internal/mips"
	"optimus/internal/parallel"
)

// AblationClustering reproduces the §III-A comparison behind MAXIMUS's
// choice of plain k-means: spherical clustering optimizes θuc directly but
// costs more per iteration; the paper found k-means within ~7% on angles and
// 2–3× faster, for a 5–10% end-to-end win.
func (r *Runner) AblationClustering() error {
	name := "r2-nomad-50"
	if ms := r.modelsOrDefault(nil); len(ms) > 0 {
		name = ms[0]
	}
	m, err := r.generate(name)
	if err != nil {
		return err
	}
	r.printf("== Ablation: k-means vs spherical clustering (%s) ==\n", name)

	cfg := kmeans.Config{K: 8, Iterations: 3, Seed: r.opt.Seed + 7, Threads: r.opt.Threads}
	t0 := time.Now()
	lloyd, err := kmeans.Run(m.Users, cfg)
	if err != nil {
		return err
	}
	lloydTime := time.Since(t0)
	cfg.Spherical = true
	t1 := time.Now()
	sph, err := kmeans.Run(m.Users, cfg)
	if err != nil {
		return err
	}
	sphTime := time.Since(t1)

	la := kmeans.MeanAngle(m.Users, lloyd)
	sa := kmeans.MeanAngle(m.Users, sph)
	r.printf("%-12s %12s %14s\n", "variant", "cluster time", "mean θuc (rad)")
	r.printf("%-12s %10sms %14.4f\n", "k-means", ms(lloydTime), la)
	r.printf("%-12s %10sms %14.4f\n", "spherical", ms(sphTime), sa)
	if sa > 0 {
		r.printf("-- k-means θuc / spherical θuc = %.3f (paper: ~1.07)\n", la/sa)
	}

	// End-to-end effect inside MAXIMUS: best of Repeats runs so one noisy
	// measurement does not decide the comparison.
	for _, spherical := range []bool{false, true} {
		best := time.Duration(1 << 62)
		for rep := 0; rep < r.opt.Repeats; rep++ {
			mx := core.NewMaximus(core.MaximusConfig{
				Spherical: spherical, Seed: r.opt.Seed + 7, Threads: r.opt.Threads,
			})
			tm, err := r.measure(mx, m, 1)
			if err != nil {
				return err
			}
			if tm.Total() < best {
				best = tm.Total()
			}
		}
		label := "k-means"
		if spherical {
			label = "spherical"
		}
		r.printf("-- MAXIMUS end-to-end (K=1, %s, best of %d): %sms\n", label, r.opt.Repeats, ms(best))
	}
	return nil
}

// AblationParams reproduces the §III-D parameter sweep: MAXIMUS's runtime is
// robust across B, |C|, and i (the paper settled on B=4096, |C|=8, i=3).
func (r *Runner) AblationParams() error {
	name := "netflix-nomad-50"
	if ms := r.modelsOrDefault(nil); len(ms) > 0 {
		name = ms[0]
	}
	m, err := r.generate(name)
	if err != nil {
		return err
	}
	r.printf("== Ablation: MAXIMUS parameter sweep (%s, K=1, end-to-end) ==\n", name)

	run := func(cfg core.MaximusConfig) (time.Duration, error) {
		cfg.Seed = r.opt.Seed + 7
		cfg.Threads = r.opt.Threads
		mx := core.NewMaximus(cfg)
		tm, err := r.measure(mx, m, 1)
		if err != nil {
			return 0, err
		}
		return tm.Total(), nil
	}

	r.printf("-- block size B (first walk segment max(k, B); default %d):\n", core.DefaultMaximusConfig().BlockSize)
	for _, b := range []int{32, 128, 256, 512, 2048, 4096} {
		d, err := run(core.MaximusConfig{BlockSize: b})
		if err != nil {
			return err
		}
		r.printf("   B=%-6d %10sms\n", b, ms(d))
	}
	r.printf("-- clusters |C|:\n")
	for _, c := range []int{2, 4, 8, 16, 32} {
		d, err := run(core.MaximusConfig{Clusters: c})
		if err != nil {
			return err
		}
		r.printf("   C=%-6d %10sms\n", c, ms(d))
	}
	r.printf("-- k-means iterations i:\n")
	for _, i := range []int{1, 3, 10} {
		d, err := run(core.MaximusConfig{KMeansIters: i})
		if err != nil {
			return err
		}
		r.printf("   i=%-6d %10sms\n", i, ms(d))
	}
	return nil
}

// AblationTTest reproduces the §IV-A early-stopping claim: with the
// incremental t-test, OPTIMUS examines a small fraction of the sample for
// point-query indexes while reaching the same decision.
func (r *Runner) AblationTTest() error {
	r.printf("== Ablation: incremental t-test early stopping (FEXIPRO-SI, K=1) ==\n")
	r.printf("%-20s %10s %12s %12s %10s\n", "model", "sample", "examined", "decision", "agree")
	for _, name := range r.modelsOrDefault([]string{"netflix-dsgd-10", "r2-nomad-50"}) {
		m, err := r.generate(name)
		if err != nil {
			return err
		}
		decide := func(disable bool) (*core.Decision, error) {
			opt := core.NewOptimus(core.OptimusConfig{
				SampleFraction: 0.05,
				L2CacheBytes:   1 << 10,
				DisableTTest:   disable,
				Seed:           r.opt.Seed + 3,
				Threads:        r.opt.Threads,
			}, fexipro.New(fexipro.Config{Variant: fexipro.SI, Threads: r.opt.Threads}))
			return opt.Measure(m.Users, m.Items, 1)
		}
		with, err := decide(false)
		if err != nil {
			return err
		}
		without, err := decide(true)
		if err != nil {
			return err
		}
		est, _ := with.EstimateFor("FEXIPRO-SI")
		agree := "yes"
		if with.Winner != without.Winner {
			agree = "NO"
		}
		r.printf("%-20s %10d %7d (%2.0f%%) %12s %10s\n",
			name, with.SampleSize, est.Examined,
			100*float64(est.Examined)/float64(with.SampleSize), with.Winner, agree)
	}
	return nil
}

// AblationCostModel reproduces the §IV-A offline-profiling discussion: the
// FLOP model predicts the GEMM stage well, but the heap-selection stage is
// data-dependent and material (paper: ≥ 9.5% of runtime on large models) —
// which is why OPTIMUS samples instead of relying on the analytical model.
func (r *Runner) AblationCostModel() error {
	name := "kdd-nomad-50"
	if ms := r.modelsOrDefault(nil); len(ms) > 0 {
		name = ms[0]
	}
	m, err := r.generate(name)
	if err != nil {
		return err
	}
	r.printf("== Ablation: analytical BMM cost model (%s) ==\n", name)

	model, err := cost.Calibrate(512, 512, m.Config.Factors, 3, r.opt.Threads)
	if err != nil {
		return err
	}
	bmm := core.NewBMM(core.BMMConfig{Threads: r.opt.Threads})
	if err := bmm.Build(m.Users, m.Items); err != nil {
		return err
	}
	threads := time.Duration(parallel.Resolve(r.opt.Threads))
	for _, k := range []int{1, 50} {
		_, st, err := bmm.QueryStats(mips.AllUserIDs(m.Users.Rows()), k)
		if err != nil {
			return err
		}
		// BMMStats sums each stage over the workers that ran it; divided by
		// the thread count it is the stage's share of the wall clock, which
		// is what the model predicts.
		gemm, heap := st.GemmTime/threads, st.HarvestTime/threads
		pred := model.PredictGemm(m.Users.Rows(), m.Items.Rows(), m.Config.Factors)
		gemmErr := cost.RelativeError(pred, gemm)
		heapFrac := heap.Seconds() / (gemm + heap).Seconds()
		r.printf("K=%-3d predictedGEMM=%sms measuredGEMM=%sms err=%.1f%%  heapStage=%sms (%.1f%% of total)\n",
			k, ms(pred), ms(gemm), gemmErr*100, ms(heap), heapFrac*100)
	}
	r.printf("-- calibrated rate: %.2f GFLOP/s\n", model.FlopsPerSecond/1e9)
	return nil
}
