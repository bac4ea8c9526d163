// Package bench is the measurement harness that regenerates the paper's
// evaluation (§V) on the synthetic reference models: Table I, Figures 2 and
// 4–8, Table II, and the ablation studies of its design choices. Each
// experiment prints the same rows or series the paper reports.
package bench

import (
	"fmt"
	"io"
	"time"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mips"
	"optimus/internal/parallel"
)

// Options configures a harness run.
type Options struct {
	// Out receives the experiment report.
	Out io.Writer
	// Scale multiplies the registry's user/item counts (default 0.25; the
	// registry's scale-1 sizes are themselves reduced from Table I).
	Scale float64
	// Threads used by solvers; 0 defers to the package-wide
	// parallel.Threads() default (the Fig 6 experiment sweeps its own).
	Threads int
	// Ks are the top-K depths for the sweep experiments (default 1,5,10,50).
	Ks []int
	// Seed drives dataset generation offsets and optimizer sampling.
	Seed int64
	// Verify re-checks solver exactness during experiments (slower; on in
	// tests, off in timing runs).
	Verify bool
	// Models restricts grid experiments (Fig 5, Table II) to the named
	// registry models; empty means the experiment's default set.
	Models []string
	// Repeats is the number of measurement repetitions for variance-style
	// experiments (Fig 7). Default 4, matching the paper's error bars.
	Repeats int
}

// Runner executes experiments.
type Runner struct {
	opt Options
}

// New returns a Runner, applying defaults to zero-valued options.
func New(opt Options) *Runner {
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	if opt.Scale <= 0 {
		opt.Scale = 0.25
	}
	opt.Threads = parallel.Resolve(opt.Threads)
	if len(opt.Ks) == 0 {
		opt.Ks = []int{1, 5, 10, 50}
	}
	if opt.Repeats <= 0 {
		opt.Repeats = 4
	}
	return &Runner{opt: opt}
}

// Experiments lists the runnable experiment ids in presentation order.
func Experiments() []string {
	return []string{
		"table1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "table2",
		"ablation-clustering", "ablation-params", "ablation-ttest", "ablation-costmodel",
		"ablation-conetree", "ablation-approx",
	}
}

// Run dispatches one experiment by id ("all" runs every experiment).
func (r *Runner) Run(id string) error {
	switch id {
	case "table1":
		return r.Table1()
	case "fig2":
		return r.Fig2()
	case "fig4":
		return r.Fig4()
	case "fig5":
		return r.Fig5()
	case "fig6":
		return r.Fig6()
	case "fig7":
		return r.Fig7()
	case "fig8":
		return r.Fig8()
	case "table2":
		return r.Table2()
	case "ablation-clustering":
		return r.AblationClustering()
	case "ablation-params":
		return r.AblationParams()
	case "ablation-ttest":
		return r.AblationTTest()
	case "ablation-costmodel":
		return r.AblationCostModel()
	case "ablation-conetree":
		return r.AblationConeTree()
	case "ablation-approx":
		return r.AblationApprox()
	case "all":
		for _, e := range Experiments() {
			if err := r.Run(e); err != nil {
				return fmt.Errorf("bench %s: %w", e, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown experiment %q (known: %v, or \"all\")", id, Experiments())
	}
}

// generate materializes a registry model at the runner's scale.
func (r *Runner) generate(name string) (*dataset.Model, error) {
	cfg, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Scale(r.opt.Scale)
	cfg.Seed += r.opt.Seed
	return dataset.Generate(cfg)
}

// solverSet builds the benchmark solvers fresh (indexes hold per-model
// state, so they are never shared across models).
func (r *Runner) solverSet(names ...string) []mips.Solver {
	var out []mips.Solver
	for _, n := range names {
		out = append(out, r.newSolver(n))
	}
	return out
}

func (r *Runner) newSolver(name string) mips.Solver {
	switch name {
	case "BMM":
		return core.NewBMM(core.BMMConfig{Threads: r.opt.Threads})
	case "MAXIMUS":
		return core.NewMaximus(core.MaximusConfig{Threads: r.opt.Threads, Seed: r.opt.Seed + 7})
	case "LEMP":
		return lemp.New(lemp.Config{Threads: r.opt.Threads, Seed: r.opt.Seed + 11})
	case "FEXIPRO-SI":
		return fexipro.New(fexipro.Config{Variant: fexipro.SI, Threads: r.opt.Threads})
	case "FEXIPRO-SIR":
		return fexipro.New(fexipro.Config{Variant: fexipro.SIR, Threads: r.opt.Threads})
	default:
		panic(fmt.Sprintf("bench: unknown solver %q", name))
	}
}

// timing is one (build, end-to-end query) measurement.
type timing struct {
	Build time.Duration
	Query time.Duration
}

// Total returns build + query, the end-to-end metric Fig 5 plots.
func (t timing) Total() time.Duration { return t.Build + t.Query }

// measure builds s on the model and runs QueryAll(k), verifying exactness
// when the runner is configured to.
func (r *Runner) measure(s mips.Solver, m *dataset.Model, k int) (timing, error) {
	var tm timing
	t0 := time.Now()
	if err := s.Build(m.Users, m.Items); err != nil {
		return tm, fmt.Errorf("%s build: %w", s.Name(), err)
	}
	tm.Build = time.Since(t0)
	q, err := r.queryOnly(s, m, k)
	tm.Query = q
	return tm, err
}

// queryOnly runs QueryAll(k) on an already-built solver.
func (r *Runner) queryOnly(s mips.Solver, m *dataset.Model, k int) (time.Duration, error) {
	t0 := time.Now()
	res, err := s.QueryAll(k)
	if err != nil {
		return 0, fmt.Errorf("%s query: %w", s.Name(), err)
	}
	d := time.Since(t0)
	if r.opt.Verify {
		if err := mips.VerifyAll(m.Users, m.Items, res, k); err != nil {
			return 0, fmt.Errorf("%s verification: %w", s.Name(), err)
		}
	}
	return d, nil
}

func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.opt.Out, format, args...)
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// ratio renders a/b as "N.NNx", guarding the zero denominator.
func ratio(a, b time.Duration) string {
	if b <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", a.Seconds()/b.Seconds())
}

// modelsOrDefault resolves the experiment's model list.
func (r *Runner) modelsOrDefault(def []string) []string {
	if len(r.opt.Models) > 0 {
		return r.opt.Models
	}
	return def
}
