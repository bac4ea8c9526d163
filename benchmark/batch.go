package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"optimus/internal/conetree"
	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/parallel"
	"optimus/internal/persist"
)

// Fixed solver seeds: the run seed drives the inputs only; the solvers' own
// k-means and sampling seeds never change.
const (
	optimusSeed = 1
	maximusSeed = 7
	lempSeed    = 11
)

// newOptimus returns the optimizer every batch pass starts from: BMM against
// MAXIMUS, nothing built yet.
func newOptimus() *core.Optimus {
	return core.NewOptimus(core.OptimusConfig{Seed: optimusSeed},
		core.NewMaximus(core.MaximusConfig{Seed: maximusSeed}))
}

// batchState is what set-up hands the measured phase of a batch workload.
type batchState struct {
	o   runOpts
	sz  sizing
	res *runResult
	m   *dataset.Model
	aud *auditor
	rng *rand.Rand
}

// runBatch is both batch workloads: every pass is a fresh OPTIMUS run —
// sample, build, decide, answer all users — over a corpus generated in
// set-up. Serving, shard and transport are not on the path.
func runBatch(o runOpts) (*runResult, error) {
	st := &batchState{o: o, sz: o.sizing(), res: newResult(o), rng: rand.New(rand.NewSource(o.seed*31 + 7))}
	var setups []float64
	var spent time.Duration
	for st.sz.again(len(setups), st.sz.setupReps, spent) {
		t0 := time.Now()
		m, err := generate(o, 0, 0)
		if err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		setups = append(setups, time.Since(t0).Seconds())
		st.m = m
	}
	st.res.set("setup_s", setups...)
	var err error
	st.aud, err = newAuditor(st.m.Users, st.m.Items, sampleIDs(st.rng, st.m.Users.Rows(), st.sz.audit))
	if err != nil {
		return nil, err
	}
	if o.traced {
		err = st.traced()
	} else {
		err = st.measured()
	}
	return st.res, err
}

// pass runs one OPTIMUS pass and verifies its answers (outside the clock).
func (st *batchState) pass(opt *core.Optimus) (*core.Decision, time.Duration, error) {
	t0 := time.Now()
	dec, results, err := opt.Run(st.m.Users, st.m.Items, K)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	wrong := verifyAll(st.aud, results)
	st.res.tally(int64(len(results))-wrong, true)
	st.res.tally(wrong, false)
	return dec, wall, nil
}

func (st *batchState) measured() error {
	users := float64(st.m.Users.Rows())

	// Warm-up pass; its optimizer is kept alive across a forced collection
	// so the heap difference is what the built candidates hold.
	before := liveHeapMB()
	opt := newOptimus()
	if _, _, err := st.pass(opt); err != nil {
		return err
	}
	st.res.set("index_mb", liveHeapMB()-before)
	runtime.KeepAlive(opt)

	var passes []float64
	var dec *core.Decision
	var total time.Duration
	budget := time.Duration(st.o.seconds * float64(time.Second))
	for total < budget || len(passes) < 3 {
		opt = newOptimus()
		d, wall, err := st.pass(opt)
		if err != nil {
			return err
		}
		dec = d
		total += wall
		passes = append(passes, wall.Seconds())
	}
	ms, rates := make([]float64, len(passes)), make([]float64, len(passes))
	for i, p := range passes {
		ms[i], rates[i] = p*1e3, users/p
	}
	// Quiet-machine estimators (see README, Noise): the fastest pass, and
	// the lower-quartile pass as a second, less extreme reading of it.
	q1, _ := quartiles(ms)
	st.res.setAs("answers_per_s", maxOf(rates), rates...)
	st.res.setAs("lat_p50_ms", minOf(ms), ms...)
	st.res.setAs("lat_p99_ms", q1, ms...)
	st.res.Notes["passes"] = fmt.Sprint(len(passes))
	st.res.Notes["winner"] = dec.Winner

	// Restore: the last pass's winner, snapshotted and loaded back.
	winner := opt.Solver(dec.Winner)
	snap, err := mips.SnapshotBytes(winner)
	if err != nil {
		return err
	}
	var restores []float64
	var restored mips.Solver
	for spent := time.Duration(0); st.sz.again(len(restores), st.sz.restoreMin, spent); {
		t0 := time.Now()
		ls, err := persist.LoadAny(bytes.NewReader(snap))
		if err != nil {
			return fmt.Errorf("restoring %s: %w", dec.Winner, err)
		}
		spent += time.Since(t0)
		restores = append(restores, time.Since(t0).Seconds())
		restored = ls.(mips.Solver)
	}
	st.res.setAs("restore_s", minOf(restores), restores...)
	ids := auditedIDs(st.aud, 64)
	rows, err := restored.Query(ids, K)
	if err != nil {
		return err
	}
	st.res.audit(st.aud, ids, rows)
	return nil
}

// auditedIDs lists up to n audited users.
func auditedIDs(a *auditor, n int) []int {
	var ids []int
	for u, ref := range a.ref {
		if ref != nil && len(ids) < n {
			ids = append(ids, u)
		}
	}
	return ids
}

// traced is the per-layer run of a batch workload: alternating untraced and
// traced passes (pass → optimus.run spans, and the tracing overhead), then
// the fixed-solver and kernel probes on the same corpus.
func (st *batchState) traced() error {
	res, m := st.res, st.m
	threads := parallel.Threads()
	tr := newTracer(1 << 12)
	users := float64(m.Users.Rows())

	var plain, spanned, overhead []float64
	var winners []string
	var sampleUsers float64
	budget := time.Duration(0.4 * st.o.seconds * float64(time.Second))
	for t0 := time.Now(); len(plain) == 0 || time.Since(t0) < budget; {
		_, wall, err := st.pass(newOptimus())
		if err != nil {
			return err
		}
		plain = append(plain, wall.Seconds())
		pid := tr.begin(spPass, 0, -1)
		oid := tr.begin(spOptimus, pid, -1)
		dec, wall, err := st.pass(newOptimus())
		tr.end(oid, int64(m.Users.Rows()))
		tr.end(pid, int64(m.Users.Rows()))
		if err != nil {
			return err
		}
		spanned = append(spanned, wall.Seconds())
		overhead = append(overhead, dec.Overhead.Seconds()/dec.Elapsed.Seconds())
		winners = append(winners, dec.Winner)
		sampleUsers = float64(dec.SampleSize)
	}
	res.set("bench.trace_overhead_frac", 1-median(plain)/median(spanned))
	res.set("core.optimus_overhead_frac", overhead...)
	res.set("core.optimus_sample_users", sampleUsers)

	// Fixed solvers, standalone, on a user subset (a full BMM pass over
	// batch-skewed alone would take 10 s).
	ids := sampleIDs(st.rng, m.Users.Rows(), st.sz.probeUsers)
	probe := tr.begin(spProbe, 0, -1)
	rows := []fixedRow{
		{core.NewBMM(core.BMMConfig{}), "core.bmm_build_s", "core.bmm_users_per_s", "core.bmm_scan_per_user"},
		{core.NewMaximus(core.MaximusConfig{Seed: maximusSeed}), "core.maximus_build_s", "core.maximus_users_per_s", "core.maximus_scan_per_user"},
		{lemp.New(lemp.Config{Seed: lempSeed}), "lemp.build_s", "lemp.users_per_s", "lemp.scan_per_user"},
	}
	if st.o.workload.Name == "batch-skewed" {
		rows = append(rows,
			fixedRow{fexipro.New(fexipro.Config{}), "", "fexipro.si_users_per_s", ""},
			fixedRow{conetree.New(conetree.Config{}), "", "conetree.users_per_s", "conetree.scan_per_user"},
			fixedRow{mips.NewNaive(), "", "mips.naive_users_per_s", ""})
	}
	setNamed := func(name string, v float64) {
		if name != "" {
			res.set(name, v)
		}
	}
	fullPass := map[string]float64{} // build + all users at the probed rate
	for i, r := range rows {
		q := ids
		if i >= 3 && len(q) > st.sz.probeUsers/8 { // the slow reference rows get a smaller subset
			q = q[:st.sz.probeUsers/8]
		}
		p, err := probeSolver(tr, probe, r.s, m.Users, m.Items, q, st.aud, res)
		if err != nil {
			return err
		}
		setNamed(r.build, p.build.Seconds())
		setNamed(r.rate, p.usersPerS)
		setNamed(r.scan, p.scanPerUser)
		fullPass[r.s.Name()] = p.build.Seconds() + users/p.usersPerS
	}
	tr.end(probe, int64(len(ids)))
	best, bestName := fullPass["BMM"], "BMM"
	if fullPass["MAXIMUS"] < best {
		best, bestName = fullPass["MAXIMUS"], "MAXIMUS"
	}
	res.set("core.optimus_regret", median(spanned)/best-1)
	correct := 0.0
	for _, w := range winners {
		if w == bestName {
			correct++
		}
	}
	res.set("core.optimus_pick_correct", correct/float64(len(winners)))
	res.Notes["winner"] = winners[len(winners)-1]
	res.Notes["best_fixed"] = bestName

	// Thread scaling of the BMM query, omitted on a one-core box.
	if threads > 1 {
		few := ids
		if len(few) > st.sz.probeUsers/4 {
			few = few[:st.sz.probeUsers/4]
		}
		bmm := core.NewBMM(core.BMMConfig{})
		if err := bmm.Build(m.Users, m.Items); err != nil {
			return err
		}
		timeAt := func(n int) (time.Duration, error) {
			bmm.SetThreads(n)
			var err error
			wall := bestOf(2, func() {
				if _, e := bmm.Query(few, K); e != nil {
					err = e
				}
			})
			return wall, err
		}
		par, err := timeAt(threads)
		if err != nil {
			return err
		}
		ser, err := timeAt(1)
		if err != nil {
			return err
		}
		res.set("parallel.speedup", ser.Seconds()/par.Seconds())
	}

	km, err := probeKMeans(m.Users, threads)
	if err != nil {
		return err
	}
	res.set("kmeans.run_s", km.Seconds())
	res.set("ref.flat_f32_users_per_s", probeFlatF32(m.Users, m.Items, ids, threads))
	if err := kernelProbes(res, st.o, m, threads); err != nil {
		return err
	}
	res.Spans = tr.recorded()
	propagateReq(res.Spans)
	return nil
}

// fixedRow is one fixed-solver probe and the metric names its build time,
// query rate and scan count are filed under ("" = not reported).
type fixedRow struct {
	s                 mips.Solver
	build, rate, scan string
}

// kernelProbes files the blas, cost and topk probe rows.
func kernelProbes(res *runResult, o runOpts, m *dataset.Model, threads int) error {
	g := probeGemm(m.Users, m.Items, threads)
	res.set("blas.gemm_gflops", g.gflops)
	res.set("blas.gemm_flops_per_byte", g.flopsPerByte)
	res.set("blas.gemm_gbytes_s", g.gbytesPerS)
	relerr, err := probeCostModel(g, threads)
	if err != nil {
		return err
	}
	res.set("cost.gemm_pred_relerr", relerr)
	words := 8 << 20 // 64 MiB per array
	if o.smoke {
		words = 1 << 16
	}
	res.set("blas.stream_gbytes_s", probeStream(words, threads))
	res.set("topk.selectrow_ns_per_score", probeSelectRow(m.Users, m.Items, o.probeDiv()))
	sharedProbes(res, o, m.Users, m.Items)
	return nil
}

// sharedProbes files the micro-probes every workload's traced run takes.
func sharedProbes(res *runResult, o runOpts, users, items *mat.Matrix) {
	div := o.probeDiv()
	res.set("blas.dot_ns", probeDot(users, items, div))
	res.set("topk.mergek_ns_per_entry", probeMergeK(div))
	enc, dec := probeCodec(div)
	res.set("topk.codec_encode_ns_per_entry", enc)
	res.set("topk.codec_decode_ns_per_entry", dec)
}
