package optimus

// One testing.B benchmark per table/figure of the paper's evaluation (§V).
// These run the same workloads as cmd/mipsbench at a reduced scale so that
// `go test -bench=. -benchmem` finishes quickly; the mipsbench tool runs the
// full-size sweeps and prints the paper-style reports. The sub-benchmark
// names encode (model, strategy, K) so benchstat can diff runs.

import (
	"fmt"
	"testing"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mips"
)

const benchScale = 0.12

func benchModel(b *testing.B, name string) *dataset.Model {
	b.Helper()
	cfg, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := dataset.Generate(cfg.Scale(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchSolver(name string) mips.Solver {
	switch name {
	case "BMM":
		return core.NewBMM(core.BMMConfig{})
	case "MAXIMUS":
		return core.NewMaximus(core.MaximusConfig{Seed: 1})
	case "LEMP":
		return lemp.New(lemp.Config{Seed: 1})
	case "FEXIPRO-SI":
		return fexipro.New(fexipro.Config{Variant: fexipro.SI})
	case "FEXIPRO-SIR":
		return fexipro.New(fexipro.Config{Variant: fexipro.SIR})
	}
	panic("unknown solver " + name)
}

// benchQueryAll builds once, then times QueryAll(k) per iteration.
func benchQueryAll(b *testing.B, m *dataset.Model, solver string, k int) {
	b.Helper()
	s := benchSolver(solver)
	if err := s.Build(m.Users, m.Items); err != nil {
		b.Fatal(err)
	}
	if _, err := s.QueryAll(k); err != nil { // measure and pack LEMP's head
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.QueryAll(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Users.Rows())*float64(b.N)/b.Elapsed().Seconds(), "users/s")
}

// BenchmarkFig2 — the motivating head-to-head: BMM vs LEMP vs FEXIPRO on the
// Netflix-regime and R2-regime f=50 models across K.
func BenchmarkFig2(b *testing.B) {
	for _, model := range []string{"netflix-dsgd-50", "r2-nomad-50"} {
		m := benchModel(b, model)
		for _, solver := range []string{"BMM", "LEMP", "FEXIPRO-SI"} {
			for _, k := range []int{1, 10, 50} {
				b.Run(fmt.Sprintf("%s/%s/K=%d", model, solver, k), func(b *testing.B) {
					benchQueryAll(b, m, solver, k)
				})
			}
		}
	}
}

// BenchmarkFig4 — index construction cost (the cheap side of the Fig 4
// asymmetry; the expensive retrieval side is BenchmarkFig2/Fig5).
func BenchmarkFig4(b *testing.B) {
	for _, model := range []string{"netflix-dsgd-10", "netflix-dsgd-50", "netflix-dsgd-100"} {
		m := benchModel(b, model)
		for _, solver := range []string{"LEMP", "FEXIPRO-SI", "MAXIMUS"} {
			b.Run(fmt.Sprintf("%s/%s/build", model, solver), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := benchSolver(solver)
					if err := s.Build(m.Users, m.Items); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5 — the headline grid on one representative model per family
// (full 23-model sweep: cmd/mipsbench fig5).
func BenchmarkFig5(b *testing.B) {
	models := []string{
		"netflix-dsgd-50", "netflix-nomad-50", "netflix-bpr-50",
		"r2-nomad-50", "kdd-nomad-50", "kdd-ref-51", "glove-50",
	}
	for _, model := range models {
		m := benchModel(b, model)
		for _, solver := range []string{"BMM", "MAXIMUS", "LEMP", "FEXIPRO-SIR", "FEXIPRO-SI"} {
			for _, k := range []int{1, 10} {
				b.Run(fmt.Sprintf("%s/%s/K=%d", model, solver, k), func(b *testing.B) {
					benchQueryAll(b, m, solver, k)
				})
			}
		}
	}
}

// BenchmarkFig6 — multi-core scaling of the three parallelizable solvers.
func BenchmarkFig6(b *testing.B) {
	m := benchModel(b, "netflix-nomad-50")
	for _, solver := range []string{"BMM", "MAXIMUS", "LEMP"} {
		for _, threads := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", solver, threads), func(b *testing.B) {
				var s mips.Solver
				switch solver {
				case "BMM":
					s = core.NewBMM(core.BMMConfig{Threads: threads})
				case "MAXIMUS":
					s = core.NewMaximus(core.MaximusConfig{Threads: threads, Seed: 1})
				case "LEMP":
					s = lemp.New(lemp.Config{Threads: threads, Seed: 1})
				}
				if err := s.Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				if _, err := s.QueryAll(1); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.QueryAll(1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkParallelScaling — thread-scaling of the two paper-contribution
// solvers on the shared parallel engine. Acceptance target: on a 4+-core
// machine, threads=4 is ≥ 2.5× threads=1 for both solvers, with results
// bit-identical across thread counts (enforced by internal/parallel's
// determinism tests). Compare with
//
//	go test -bench=ParallelScaling -run=^$ -count=5 | benchstat
//
// Builds happen once per (solver, threads) outside the timed loop; the
// measured region is QueryAll, the batch hot path OPTIMUS arbitrates.
func BenchmarkParallelScaling(b *testing.B) {
	m := benchModel(b, "netflix-nomad-50")
	const k = 10
	for _, solver := range []string{"BMM", "MAXIMUS"} {
		for _, threads := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", solver, threads), func(b *testing.B) {
				var s mips.Solver
				switch solver {
				case "BMM":
					s = core.NewBMM(core.BMMConfig{Threads: threads})
				case "MAXIMUS":
					s = core.NewMaximus(core.MaximusConfig{Threads: threads, Seed: 1})
				}
				if err := s.Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				if _, err := s.QueryAll(k); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.QueryAll(k); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(m.Users.Rows())*float64(b.N)/b.Elapsed().Seconds(), "users/s")
			})
		}
	}
}

// BenchmarkFig7 — cost of one OPTIMUS measurement pass (build + sample +
// decide) at the sample ratios the estimator sweep uses.
func BenchmarkFig7(b *testing.B) {
	m := benchModel(b, "kdd-ref-51")
	for _, ratio := range []float64{0.01, 0.05, 0.10} {
		b.Run(fmt.Sprintf("measure/sample=%.2f", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.NewOptimus(core.OptimusConfig{
					SampleFraction: ratio, L2CacheBytes: 1, Seed: int64(i),
				}, core.NewMaximus(core.MaximusConfig{Seed: 1}))
				if _, err := opt.Measure(m.Users, m.Items, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8 — the item-blocking lesion: MAXIMUS traversal with and
// without the shared block multiply.
func BenchmarkFig8(b *testing.B) {
	for _, model := range []string{"netflix-nomad-50", "r2-nomad-50"} {
		m := benchModel(b, model)
		for _, blocking := range []bool{true, false} {
			label := "blocking=on"
			if !blocking {
				label = "blocking=off"
			}
			b.Run(fmt.Sprintf("%s/%s", model, label), func(b *testing.B) {
				mx := core.NewMaximus(core.MaximusConfig{
					Seed: 1, DisableItemBlocking: !blocking,
				})
				if err := mx.Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mx.QueryAll(1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable2 — full OPTIMUS runs (measure + finish with the winner) for
// each two-way pairing on one BMM-regime and one index-regime model.
func BenchmarkTable2(b *testing.B) {
	for _, model := range []string{"netflix-dsgd-50", "r2-nomad-50"} {
		m := benchModel(b, model)
		pairings := map[string]func() mips.Solver{
			"LEMP":        func() mips.Solver { return lemp.New(lemp.Config{Seed: 1}) },
			"FEXIPRO-SI":  func() mips.Solver { return fexipro.New(fexipro.Config{Variant: fexipro.SI}) },
			"FEXIPRO-SIR": func() mips.Solver { return fexipro.New(fexipro.Config{Variant: fexipro.SIR}) },
			"MAXIMUS":     func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 1}) },
		}
		for _, name := range []string{"LEMP", "FEXIPRO-SI", "FEXIPRO-SIR", "MAXIMUS"} {
			mk := pairings[name]
			b.Run(fmt.Sprintf("%s/BMM+%s", model, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opt := core.NewOptimus(core.OptimusConfig{Seed: 1}, mk())
					if _, _, err := opt.Run(m.Users, m.Items, 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable1 — dataset generation throughput (the substrate every other
// benchmark depends on).
func BenchmarkTable1(b *testing.B) {
	cfg, err := dataset.ByName("netflix-dsgd-50")
	if err != nil {
		b.Fatal(err)
	}
	cfg = cfg.Scale(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
