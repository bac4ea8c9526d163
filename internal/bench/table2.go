package bench

import (
	"fmt"
	"math"
	"time"

	"optimus/internal/core"
	"optimus/internal/mips"
	"optimus/internal/stats"
)

// table2Pairings are the optimizer configurations of Table II: BMM paired
// with each index, plus the three-way bottom row.
var table2Pairings = []struct {
	label   string
	indexes []string
}{
	{"BMM + LEMP", []string{"LEMP"}},
	{"BMM + FEXIPRO-SI", []string{"FEXIPRO-SI"}},
	{"BMM + FEXIPRO-SIR", []string{"FEXIPRO-SIR"}},
	{"BMM + MAXIMUS", []string{"MAXIMUS"}},
	{"BMM + LEMP + MAXIMUS", []string{"LEMP", "MAXIMUS"}},
}

// table2DefaultModels keeps the default grid affordable: one model per
// regime family. Pass Options.Models (e.g. all 23 names) for the full sweep.
var table2DefaultModels = []string{
	"netflix-dsgd-50", "netflix-bpr-25", "r2-nomad-50", "kdd-nomad-25", "glove-50",
}

// Table2Result aggregates one pairing's row.
type Table2Result struct {
	Label string
	// Accuracy is the fraction of (model, K) combos where OPTIMUS picked the
	// truly fastest strategy among its candidates.
	Accuracy float64
	// MeanOverhead / StdDevOverhead are the optimization overhead as a
	// fraction of the end-to-end OPTIMUS runtime.
	MeanOverhead, StdDevOverhead float64
	// IndexOnly, Optimus, Oracle are mean speedups versus the LEMP-only
	// baseline (Table II's normalization).
	IndexOnly, Optimus, Oracle float64
	// Combos is the number of (model, K) combinations evaluated.
	Combos int
}

// Table2 reproduces the optimizer-efficacy table: for each pairing, decision
// accuracy, measurement overhead, and speedup versus always running LEMP,
// with the zero-overhead oracle as the ceiling.
func (r *Runner) Table2() error {
	results, err := r.Table2Results()
	if err != nil {
		return err
	}
	r.printf("== Table II: OPTIMUS efficacy (speedups vs LEMP-only baseline) ==\n")
	r.printf("%-22s %9s %9s %8s %10s %9s %8s\n",
		"pairing", "accuracy", "overhead", "±sd", "index-only", "OPTIMUS", "oracle")
	for _, res := range results {
		indexOnly := "-"
		if res.IndexOnly > 0 {
			indexOnly = fmtX(res.IndexOnly)
		}
		r.printf("%-22s %8.1f%% %8.1f%% %7.1f%% %10s %9s %8s\n",
			res.Label, res.Accuracy*100, res.MeanOverhead*100, res.StdDevOverhead*100,
			indexOnly, fmtX(res.Optimus), fmtX(res.Oracle))
	}
	return nil
}

func fmtX(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", v)
}

// Table2Results runs the Table II grid and returns structured rows.
func (r *Runner) Table2Results() ([]Table2Result, error) {
	models := r.modelsOrDefault(table2DefaultModels)
	ks := r.opt.Ks
	if len(ks) > 2 {
		ks = []int{ks[0], ks[2]} // default K ∈ {1, 10} keeps the grid affordable
	}

	// Truth is query-phase runtime: OPTIMUS optimizes traversal time (§IV-A;
	// construction is sunk by decision time and, at the paper's scale, is
	// 0.5–2% of the total — Fig 4). Judging the decision against
	// build-inclusive totals would penalize it for costs it cannot avoid.
	type combo struct {
		truth map[string]time.Duration // strategy -> QueryAll wall-clock
	}
	var combos []combo
	type pending struct {
		model string
		k     int
	}
	var grid []pending
	allStrategies := []string{"BMM", "MAXIMUS", "LEMP", "FEXIPRO-SI", "FEXIPRO-SIR"}

	// Phase 1: ground truth for every strategy on every (model, K).
	for _, name := range models {
		m, err := r.generate(name)
		if err != nil {
			return nil, err
		}
		built := make(map[string]mips.Solver)
		for _, sn := range allStrategies {
			s := r.newSolver(sn)
			if err := s.Build(m.Users, m.Items); err != nil {
				return nil, err
			}
			built[sn] = s
		}
		for _, k := range ks {
			c := combo{truth: make(map[string]time.Duration)}
			for _, sn := range allStrategies {
				// Best of Repeats: single-digit-millisecond runs are noisy
				// at repo scale and a flipped near-tie would misreport the
				// optimizer's accuracy.
				best := time.Duration(1 << 62)
				for rep := 0; rep < r.opt.Repeats; rep++ {
					q, err := r.queryOnly(built[sn], m, k)
					if err != nil {
						return nil, err
					}
					if q < best {
						best = q
					}
				}
				c.truth[sn] = best
			}
			combos = append(combos, c)
			grid = append(grid, pending{model: name, k: k})
		}
	}

	// Phase 2: per pairing, run the optimizer's measurement on each combo.
	var out []Table2Result
	for _, pairing := range table2Pairings {
		res := Table2Result{Label: pairing.label}
		var overheads []float64
		var correct int
		var sumIndexOnly, sumOptimus, sumOracle float64
		for ci, g := range grid {
			m, err := r.generate(g.model)
			if err != nil {
				return nil, err
			}
			var indexes []mips.Solver
			for _, sn := range pairing.indexes {
				indexes = append(indexes, r.newSolver(sn))
			}
			// Sample sizing scales with the models: the paper's 256 KiB L2
			// floor corresponds to ~0.1% of its 480k+ user sets, but would
			// swallow half of a scaled-down model and read as enormous
			// overhead. 16 KiB preserves the floor's intent (enough rows for
			// the blocked kernel to show its real throughput) at repo scale.
			opt := core.NewOptimus(core.OptimusConfig{
				SampleFraction: 0.02,
				L2CacheBytes:   16 << 10,
				Seed:           r.opt.Seed + int64(ci)*31,
				Threads:        r.opt.Threads,
			}, indexes...)
			dec, err := opt.Measure(m.Users, m.Items, g.k)
			if err != nil {
				return nil, err
			}
			truth := combos[ci].truth
			candidates := append([]string{"BMM"}, pairing.indexes...)
			trueBest := candidates[0]
			for _, sn := range candidates[1:] {
				if truth[sn] < truth[trueBest] {
					trueBest = sn
				}
			}
			if dec.Winner == trueBest {
				correct++
			}
			baseline := truth["LEMP"]
			oracleTime := truth[trueBest]
			optimusTime := truth[dec.Winner] + dec.Overhead
			overheads = append(overheads, dec.Overhead.Seconds()/optimusTime.Seconds())
			if len(pairing.indexes) == 1 {
				sumIndexOnly += baseline.Seconds() / truth[pairing.indexes[0]].Seconds()
			}
			sumOptimus += baseline.Seconds() / optimusTime.Seconds()
			sumOracle += baseline.Seconds() / oracleTime.Seconds()
		}
		n := float64(len(grid))
		res.Combos = len(grid)
		res.Accuracy = float64(correct) / n
		sm := stats.Summarize(overheads)
		res.MeanOverhead, res.StdDevOverhead = sm.Mean, sm.StdDev
		if len(pairing.indexes) == 1 {
			res.IndexOnly = sumIndexOnly / n
		}
		res.Optimus = sumOptimus / n
		res.Oracle = sumOracle / n
		out = append(out, res)
	}
	return out, nil
}
