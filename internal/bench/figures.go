package bench

import (
	"fmt"
	"runtime"
	"time"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mips"
)

// Table1 prints the dataset inventory — the synthetic stand-ins for Table I
// with their regime knobs, at the runner's scale.
func (r *Runner) Table1() error {
	r.printf("== Table I: reference models (synthetic, scale %.2f) ==\n", r.opt.Scale)
	r.printf("%-20s %8s %8s %4s %8s %8s %9s\n",
		"model", "users", "items", "f", "spread", "normSig", "normSkew")
	for _, cfg := range dataset.Registry() {
		scaled := cfg.Scale(r.opt.Scale)
		scaled.Seed += r.opt.Seed
		m, err := dataset.Generate(scaled)
		if err != nil {
			return err
		}
		r.printf("%-20s %8d %8d %4d %8.2f %8.2f %9.2f\n",
			cfg.Name, scaled.Users, scaled.Items, scaled.Factors,
			scaled.UserSpread, scaled.NormSigma, m.NormSkew())
	}
	return nil
}

// Fig2 reproduces the motivating experiment: BMM vs LEMP vs FEXIPRO on a
// Netflix-regime model (paper: BMM fastest, 1.9–3.1×) and an R2-regime model
// (paper: the indexes 2–3.5× faster than BMM), K ∈ {1,5,10,50}.
func (r *Runner) Fig2() error {
	r.printf("== Fig 2: blocked MM vs LEMP vs FEXIPRO (end-to-end seconds) ==\n")
	for _, name := range r.modelsOrDefault([]string{"netflix-dsgd-50", "r2-nomad-50"}) {
		m, err := r.generate(name)
		if err != nil {
			return err
		}
		r.printf("-- %s (%d users, %d items, f=%d)\n",
			name, m.Users.Rows(), m.Items.Rows(), m.Config.Factors)
		r.printf("%6s %12s %12s %12s\n", "K", "BMM", "LEMP", "FEXIPRO-SI")
		solvers := r.solverSet("BMM", "LEMP", "FEXIPRO-SI")
		times := make(map[string]map[int]time.Duration)
		for _, s := range solvers {
			times[s.Name()] = make(map[int]time.Duration)
			var build time.Duration
			for ki, k := range r.opt.Ks {
				var total time.Duration
				if ki == 0 {
					tm, err := r.measure(s, m, k)
					if err != nil {
						return err
					}
					build = tm.Build
					total = tm.Total()
				} else {
					q, err := r.queryOnly(s, m, k)
					if err != nil {
						return err
					}
					// The paper's end-to-end includes construction in every
					// K column; the index is built once and the cost added
					// to each.
					total = build + q
				}
				times[s.Name()][k] = total
			}
		}
		for _, k := range r.opt.Ks {
			r.printf("%6d %11sms %11sms %11sms\n", k,
				ms(times["BMM"][k]), ms(times["LEMP"][k]), ms(times["FEXIPRO-SI"][k]))
		}
		bmmK1 := times["BMM"][r.opt.Ks[0]]
		r.printf("   K=%d: LEMP/BMM = %s, FEXIPRO/BMM = %s\n",
			r.opt.Ks[0], ratio(times["LEMP"][r.opt.Ks[0]], bmmK1),
			ratio(times["FEXIPRO-SI"][r.opt.Ks[0]], bmmK1))
	}
	return nil
}

// Fig4 reproduces the construction-vs-retrieval gap: index construction is
// orders of magnitude cheaper than computing even top-1 for all users — the
// asymmetry that makes OPTIMUS's always-build-the-index strategy viable.
func (r *Runner) Fig4() error {
	r.printf("== Fig 4: index construction vs end-to-end retrieval (K=1) ==\n")
	r.printf("%-20s %-12s %12s %12s %10s\n", "model", "index", "construct", "retrieve", "ratio")
	for _, name := range r.modelsOrDefault([]string{"netflix-dsgd-10", "netflix-dsgd-50", "netflix-dsgd-100"}) {
		m, err := r.generate(name)
		if err != nil {
			return err
		}
		for _, sn := range []string{"LEMP", "FEXIPRO-SI", "MAXIMUS"} {
			s := r.newSolver(sn)
			tm, err := r.measure(s, m, 1)
			if err != nil {
				return err
			}
			r.printf("%-20s %-12s %10sms %10sms %10s\n",
				name, sn, ms(tm.Build), ms(tm.Query), ratio(tm.Query, tm.Build))
		}
	}
	return nil
}

// fig5Solvers is the Fig 5 strategy set in plot order.
var fig5Solvers = []string{"BMM", "MAXIMUS", "LEMP", "FEXIPRO-SIR", "FEXIPRO-SI"}

// Fig5Row is one (model, K) measurement across all strategies.
type Fig5Row struct {
	Model   string
	K       int
	Seconds map[string]float64
	Fastest string
}

// Fig5 reproduces the headline grid: every reference model × K × strategy,
// with the winner-count summary the paper reports (LEMP fastest on 11 of 92,
// BMM on 53, MAXIMUS on 28 among those three).
func (r *Runner) Fig5() error {
	rows, err := r.Fig5Rows()
	if err != nil {
		return err
	}
	r.printf("== Fig 5: end-to-end wall-clock (seconds) ==\n")
	r.printf("%-20s %4s %10s %10s %10s %11s %10s %12s\n",
		"model", "K", "BMM", "MAXIMUS", "LEMP", "FEXIPRO-SIR", "FEXIPRO-SI", "fastest")
	wins := map[string]int{}
	threeWayWins := map[string]int{}
	var sumLempOverMax, sumFexOverMax float64
	var nRows int
	for _, row := range rows {
		r.printf("%-20s %4d %10.3f %10.3f %10.3f %11.3f %10.3f %12s\n",
			row.Model, row.K,
			row.Seconds["BMM"], row.Seconds["MAXIMUS"], row.Seconds["LEMP"],
			row.Seconds["FEXIPRO-SIR"], row.Seconds["FEXIPRO-SI"], row.Fastest)
		wins[row.Fastest]++
		threeWayWins[fastestOf(row.Seconds, "BMM", "MAXIMUS", "LEMP")]++
		if row.Seconds["MAXIMUS"] > 0 {
			sumLempOverMax += row.Seconds["LEMP"] / row.Seconds["MAXIMUS"]
			sumFexOverMax += row.Seconds["FEXIPRO-SI"] / row.Seconds["MAXIMUS"]
		}
		nRows++
	}
	r.printf("-- winner counts (all strategies): %v\n", wins)
	r.printf("-- winner counts (BMM/MAXIMUS/LEMP, paper: 53/28/11 of 92): %v\n", threeWayWins)
	if nRows > 0 {
		r.printf("-- mean speedup of MAXIMUS vs LEMP: %.2fx (paper: 1.8x), vs FEXIPRO-SI: %.2fx (paper: >10x)\n",
			sumLempOverMax/float64(nRows), sumFexOverMax/float64(nRows))
	}
	return nil
}

// Fig5Rows runs the grid and returns structured rows (used by Fig5 and by
// the integration tests).
func (r *Runner) Fig5Rows() ([]Fig5Row, error) {
	models := r.modelsOrDefault(dataset.Names())
	var rows []Fig5Row
	for _, name := range models {
		m, err := r.generate(name)
		if err != nil {
			return nil, err
		}
		perSolver := make(map[string]map[int]time.Duration)
		for _, sn := range fig5Solvers {
			s := r.newSolver(sn)
			perSolver[sn] = make(map[int]time.Duration)
			var build time.Duration
			for ki, k := range r.opt.Ks {
				var total time.Duration
				if ki == 0 {
					tm, err := r.measure(s, m, k)
					if err != nil {
						return nil, err
					}
					build = tm.Build
					total = tm.Total()
				} else {
					q, err := r.queryOnly(s, m, k)
					if err != nil {
						return nil, err
					}
					// End-to-end per the paper: construction counted in
					// every K column (built once, amortized never).
					total = build + q
				}
				perSolver[sn][k] = total
			}
		}
		for _, k := range r.opt.Ks {
			row := Fig5Row{Model: name, K: k, Seconds: map[string]float64{}}
			best := ""
			for _, sn := range fig5Solvers {
				sec := perSolver[sn][k].Seconds()
				row.Seconds[sn] = sec
				if best == "" || sec < row.Seconds[best] {
					best = sn
				}
			}
			row.Fastest = best
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func fastestOf(secs map[string]float64, names ...string) string {
	best := names[0]
	for _, n := range names[1:] {
		if secs[n] < secs[best] {
			best = n
		}
	}
	return best
}

// Fig6 reproduces the multi-core scaling experiment: K=1 end-to-end runtime
// for BMM, MAXIMUS, and LEMP across thread counts (paper: near-linear for
// all three; FEXIPRO had no multi-core implementation). The speedup only
// materializes on a multi-core host — the header reports the cores actually
// available, since on a single-core machine the lines stay flat by physics,
// not by implementation (thread-count result parity is covered by tests).
func (r *Runner) Fig6() error {
	r.printf("== Fig 6: multi-core scaling (K=1, end-to-end seconds) ==\n")
	r.printf("-- host: %d CPU core(s) visible to the runtime\n", runtime.NumCPU())
	name := "netflix-nomad-50"
	if ms := r.modelsOrDefault(nil); len(ms) > 0 {
		name = ms[0]
	}
	m, err := r.generate(name)
	if err != nil {
		return err
	}
	threadCounts := []int{1, 2, 4, 8, 16}
	r.printf("-- %s\n%-10s", name, "threads")
	for _, tc := range threadCounts {
		r.printf(" %9d", tc)
	}
	r.printf("\n")
	for _, sn := range []string{"BMM", "MAXIMUS", "LEMP"} {
		base := time.Duration(0)
		r.printf("%-10s", sn)
		for _, tc := range threadCounts {
			s := r.newSolverThreads(sn, tc)
			tm, err := r.measure(s, m, 1)
			if err != nil {
				return err
			}
			if base == 0 {
				base = tm.Total()
			}
			r.printf(" %8.3fs", tm.Total().Seconds())
		}
		r.printf("\n")
	}
	return nil
}

func (r *Runner) newSolverThreads(name string, threads int) mips.Solver {
	switch name {
	case "BMM":
		return core.NewBMM(core.BMMConfig{Threads: threads})
	case "MAXIMUS":
		return core.NewMaximus(core.MaximusConfig{Threads: threads, Seed: r.opt.Seed + 7})
	case "LEMP":
		return lemp.New(lemp.Config{Threads: threads, Seed: r.opt.Seed + 11})
	default:
		panic(fmt.Sprintf("bench: fig6 solver %q", name))
	}
}

// Fig8 reproduces the MAXIMUS stage breakdown and the item-blocking lesion:
// clustering, index construction, and traversal, with and without the
// shared block multiply (paper: blocking improves Netflix 2.4×
// and R2 1.4×).
func (r *Runner) Fig8() error {
	r.printf("== Fig 8: MAXIMUS runtime breakdown, item-blocking lesion (K=1) ==\n")
	r.printf("%-20s %-9s %11s %11s %11s %9s\n",
		"model", "blocking", "cluster", "construct", "traverse", "speedup")
	for _, name := range r.modelsOrDefault([]string{"netflix-nomad-50", "r2-nomad-50"}) {
		m, err := r.generate(name)
		if err != nil {
			return err
		}
		var withBlocking, withoutBlocking time.Duration
		for _, disable := range []bool{false, true} {
			mx := core.NewMaximus(core.MaximusConfig{
				Threads:             r.opt.Threads,
				Seed:                r.opt.Seed + 7,
				DisableItemBlocking: disable,
			})
			if err := mx.Build(m.Users, m.Items); err != nil {
				return err
			}
			// Best of Repeats traversals: the lesion compares execution
			// plans, so per-run noise should not decide it.
			traverse := time.Duration(1 << 62)
			for rep := 0; rep < r.opt.Repeats; rep++ {
				t0 := time.Now()
				res, err := mx.QueryAll(1)
				if err != nil {
					return err
				}
				if d := time.Since(t0); d < traverse {
					traverse = d
				}
				if r.opt.Verify && rep == 0 {
					if err := mips.VerifyAll(m.Users, m.Items, res, 1); err != nil {
						return err
					}
				}
			}
			tm := mx.Timings()
			label := "on"
			if disable {
				label = "off"
				withoutBlocking = traverse
			} else {
				withBlocking = traverse
			}
			speedup := ""
			if disable && withBlocking > 0 {
				speedup = ratio(withoutBlocking, withBlocking)
			}
			r.printf("%-20s %-9s %11sms %11sms %11sms %9s\n",
				name, label, ms(tm.Clustering), ms(tm.Construction), ms(traverse), speedup)
		}
	}
	return nil
}
