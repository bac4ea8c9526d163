package optimus

// One testing.B benchmark per table/figure of the paper's evaluation (§V).
// These run the same workloads as cmd/mipsbench at a reduced scale so that
// `go test -bench=. -benchmem` finishes quickly; the mipsbench tool runs the
// full-size sweeps and prints the paper-style reports. The sub-benchmark
// names encode (model, strategy, K) so benchstat can diff runs.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/fexipro"
	"optimus/internal/lemp"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/shard"
	"optimus/internal/transport"
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
	if _, err := s.QueryAll(k); err != nil { // warm tuning caches (LEMP)
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

// BenchmarkShardedScaling — shard-count scaling of the item-sharded
// execution layer over the two batching solvers, at the process-default
// thread count. S=1 vs the plain solver isolates the composite's overhead
// (remap + k-way merge); higher S measures the fan-out. Compare with
//
//	go test -bench=ShardedScaling -run=^$ -count=5 | benchstat
//
// (single runs on a loaded box swing ±30%; always difference with
// benchstat, as the CI bench job does).
func BenchmarkShardedScaling(b *testing.B) {
	m := benchModel(b, "netflix-nomad-50")
	const k = 10
	for _, solver := range []string{"BMM", "MAXIMUS"} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", solver, shards), func(b *testing.B) {
				solver := solver
				s := shard.New(shard.Config{
					Shards:  shards,
					Factory: func() mips.Solver { return benchSolver(solver) },
				})
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

// BenchmarkThresholdPruning — cross-shard threshold propagation on the
// by-norm partition: the two-wave floor-seeded query (seeded) against the
// blind single-wave fan-out (blind), for both pruning sub-solvers on a
// norm-skewed model. Besides users/s, each run reports tail-scan/user — the
// candidates the tail shards evaluated per queried user, a deterministic
// counter identical across runs and thread counts — so the pruning win
// survives noisy CI runners where wall-clock deltas drown in jitter.
// Compare with
//
//	go test -bench=ThresholdPruning -run=^$ -count=5 | benchstat
func BenchmarkThresholdPruning(b *testing.B) {
	m := benchModel(b, "kdd-nomad-50") // the registry's heaviest norm skew
	const k = 10
	const shards = 4
	for _, solver := range []string{"LEMP", "MAXIMUS"} {
		for _, mode := range []string{"blind", "seeded"} {
			b.Run(fmt.Sprintf("%s/S=%d/%s", solver, shards, mode), func(b *testing.B) {
				solver := solver
				sched := shard.AutoSchedule
				if mode == "blind" {
					sched = shard.SingleWave
				}
				s := shard.New(shard.Config{
					Shards:      shards,
					Partitioner: shard.ByNorm(),
					Factory:     func() mips.Solver { return benchSolver(solver) },
					Schedule:    sched,
				})
				if err := s.Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				if _, err := s.QueryAll(k); err != nil { // warm tuning caches (LEMP)
					b.Fatal(err)
				}
				s.ResetScanStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.QueryAll(k); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				var tail int64
				for si, st := range s.ShardScanStats() {
					if si > 0 {
						tail += st.Scanned
					}
				}
				users := float64(m.Users.Rows()) * float64(b.N)
				b.ReportMetric(users/b.Elapsed().Seconds(), "users/s")
				b.ReportMetric(float64(tail)/users, "tail-scan/user")
			})
		}
	}
}

// BenchmarkWaveScheduling — the wave-schedule sweep on the by-norm
// partition: blind single-wave fan-out, the head-seeded two-wave default,
// the serial cascade (each wave's union k-th tightens the next wave's
// floors), and the pipelined schedule (all shards concurrent over a live
// floor board). Besides users/s, each run reports scan/user — total
// candidates evaluated per queried user. The counter is deterministic for
// every schedule except pipelined, whose floors race shard completion;
// regression gating reads the cascade and two-wave rows. Compare with
//
//	go test -bench=WaveScheduling -run=^$ -count=5 | benchstat
func BenchmarkWaveScheduling(b *testing.B) {
	m := benchModel(b, "kdd-nomad-50") // the registry's heaviest norm skew
	const k = 10
	const shards = 4
	for _, solver := range []string{"LEMP", "MAXIMUS"} {
		for _, sched := range []shard.Schedule{
			shard.SingleWave, shard.TwoWave, shard.Cascade, shard.Pipelined,
		} {
			b.Run(fmt.Sprintf("%s/S=%d/%s", solver, shards, sched), func(b *testing.B) {
				solver := solver
				s := shard.New(shard.Config{
					Shards:      shards,
					Partitioner: shard.ByNorm(),
					Schedule:    sched,
					Factory:     func() mips.Solver { return benchSolver(solver) },
				})
				if err := s.Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				if _, err := s.QueryAll(k); err != nil { // warm tuning caches (LEMP)
					b.Fatal(err)
				}
				s.ResetScanStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.QueryAll(k); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				var total int64
				for _, st := range s.WaveScanStats() {
					total += st.Scanned
				}
				users := float64(m.Users.Rows()) * float64(b.N)
				b.ReportMetric(users/b.Elapsed().Seconds(), "users/s")
				b.ReportMetric(float64(total)/users, "scan/user")
			})
		}
	}
}

// BenchmarkLoopbackOverhead — the wire-path tax: the same by-norm sharded
// composite served by in-process workers (direct) and by loopback-transport
// workers (every coordinator↔worker call round-tripped through the wire
// codec). Loopback pays the full encode/decode cost with zero network
// latency, so direct-vs-wired users/s is pure serialization overhead — the
// cost floor of a networked deployment. Wired runs additionally report
// bytes/user (request + reply traffic per queried user) off the transport's
// byte meters. Compare with
//
//	go test -bench=LoopbackOverhead -run=^$ -count=5 | benchstat
func BenchmarkLoopbackOverhead(b *testing.B) {
	m := benchModel(b, "netflix-nomad-50")
	const k = 10
	const shards = 4
	for _, solver := range []string{"BMM", "LEMP"} {
		for _, path := range []string{"direct", "wired"} {
			b.Run(fmt.Sprintf("%s/S=%d/%s", solver, shards, path), func(b *testing.B) {
				solver := solver
				cfg := shard.Config{
					Shards:      shards,
					Partitioner: shard.ByNorm(),
					Factory:     func() mips.Solver { return benchSolver(solver) },
				}
				var lb *transport.Loopback
				if path == "wired" {
					lb = transport.NewLoopback()
					cfg.WorkerDialer = lb.Dialer()
				}
				s := shard.New(cfg)
				if err := s.Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				if _, err := s.QueryAll(k); err != nil { // warm tuning caches (LEMP)
					b.Fatal(err)
				}
				var before transport.Stats
				if lb != nil {
					before = lb.Stats()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.QueryAll(k); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				users := float64(m.Users.Rows()) * float64(b.N)
				b.ReportMetric(users/b.Elapsed().Seconds(), "users/s")
				if lb != nil {
					after := lb.Stats()
					wire := (after.BytesSent - before.BytesSent) +
						(after.BytesReceived - before.BytesReceived)
					b.ReportMetric(float64(wire)/users, "bytes/user")
				}
			})
		}
	}
}

// benchModelSeed is benchModel with an extra seed offset — an independent
// draw from the same distribution, the churn benchmark's arrival stream.
func benchModelSeed(b *testing.B, name string, extra int64) *dataset.Model {
	b.Helper()
	cfg, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg = cfg.Scale(benchScale)
	cfg.Seed += extra
	m, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkChurn — the mutable-corpus lifecycle on the by-norm sharded
// executor: each op is one churn round (add a batch, remove a batch spread
// across the norm range, serve the whole user base). The dirty-shard mode
// mutates in place, one AddItems + one RemoveItems per round — PR 4's
// per-event baseline; the full-rebuild mode pays a fresh composite Build
// over the mutated corpus — the static-solver baseline the lifecycle
// replaces, which by definition reconstructs all S sub-solvers every round;
// the batched-F* modes enqueue the same events on a mutation log
// (internal/mutlog) and flush every F rounds, so one apply — one drain
// behind a serving layer, at most one AddItems + one RemoveItems against
// the composite — absorbs F rounds of events. The wall-clock delta between
// dirty-shard and full-rebuild is the rebuild time saved; dirty-shard and
// batched modes additionally report the deterministic amortization
// counters the noisy-runner-proof acceptance reads: dirty-shards/op,
// gen-ticks/event (composite Generation advances per applied mutation; the
// log divides it by F), and drains/event for batched modes (log flushes per
// catalog event — strictly fewer drains than events). An event is one
// catalog row added or removed (2·batch per round). Compare with
//
//	go test -bench=Churn -run=^$ -count=5 | benchstat
func BenchmarkChurn(b *testing.B) {
	m := benchModel(b, "r2-nomad-50")
	pool := benchModelSeed(b, "r2-nomad-50", 977).Items
	const k = 10
	const shards = 4
	batch := m.Items.Rows() / 100
	if batch < 1 {
		batch = 1
	}
	flushEvery := map[string]int{"batched-F4": 4, "batched-F16": 16}
	for _, solver := range []string{"LEMP", "MAXIMUS"} {
		for _, mode := range []string{"dirty-shard", "full-rebuild", "batched-F4", "batched-F16"} {
			b.Run(fmt.Sprintf("%s/S=%d/%s", solver, shards, mode), func(b *testing.B) {
				solver := solver
				cfg := shard.Config{
					Shards:      shards,
					Partitioner: shard.ByNorm(),
					Factory:     func() mips.Solver { return benchSolver(solver) },
				}
				s := shard.New(cfg)
				if err := s.Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				if _, err := s.QueryAll(k); err != nil { // warm tuning caches
					b.Fatal(err)
				}
				var log *mutlog.Log
				if F := flushEvery[mode]; F > 0 {
					applier, err := mutlog.Direct(s)
					if err != nil {
						b.Fatal(err)
					}
					if log, err = mutlog.New(applier, mutlog.Config{MaxEvents: -1, MaxDelay: -1}); err != nil {
						b.Fatal(err)
					}
				}
				corpus := m.Items
				next := 0
				draw := func() *Matrix {
					if next+batch > pool.Rows() {
						next = 0 // recycle the arrival stream
					}
					add := pool.RowSlice(next, next+batch)
					next += batch
					return add
				}
				rm := make([]int, batch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					add := draw()
					for j := range rm {
						// Deterministic spread across the whole norm range.
						rm[j] = (j*corpus.Rows()/batch + i*131) % corpus.Rows()
					}
					sorted, err := mips.ValidateRemoveIDs(rm, corpus.Rows()+batch)
					if err != nil {
						b.Fatal(err)
					}
					switch {
					case mode == "dirty-shard":
						if _, err := s.AddItems(add); err != nil {
							b.Fatal(err)
						}
						if err := s.RemoveItems(sorted); err != nil {
							b.Fatal(err)
						}
						corpus = RemoveMatrixRows(AppendMatrixRows(corpus, add), sorted)
					case log != nil:
						// The log sees the identical event stream; rm ids are
						// virtual-corpus ids, which the bookkeeping below
						// keeps numerically equal to the dirty-shard mode's.
						if _, err := log.Add(add); err != nil {
							b.Fatal(err)
						}
						if err := log.Remove(sorted); err != nil {
							b.Fatal(err)
						}
						corpus = RemoveMatrixRows(AppendMatrixRows(corpus, add), sorted)
						if (i+1)%flushEvery[mode] == 0 {
							if err := log.Flush(); err != nil {
								b.Fatal(err)
							}
						}
					default: // full-rebuild
						corpus = RemoveMatrixRows(AppendMatrixRows(corpus, add), sorted)
						s = shard.New(cfg)
						if err := s.Build(m.Users, corpus); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := s.QueryAll(k); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				rounds := float64(b.N)
				events := rounds * float64(2*batch)
				b.ReportMetric(rounds/b.Elapsed().Seconds(), "rounds/s")
				if log != nil {
					if err := log.Close(); err != nil { // final partial batch
						b.Fatal(err)
					}
					b.ReportMetric(float64(log.Stats().Flushes)/events, "drains/event")
				}
				if mode != "full-rebuild" {
					st := s.MutationStats()
					b.ReportMetric(float64(st.Dirty())/rounds, "dirty-shards/op")
					b.ReportMetric(float64(s.Generation())/events, "gen-ticks/event")
				}
			})
		}
	}
}

// BenchmarkAdaptiveRetune — one full drift-and-recover cycle per op on the
// scripted trending-catalog scenario (adaptive_test.go): build the by-norm
// BMM composite, churn it until the cut goes stale, let the manual-mode
// tuner fire, and compare the recovered scan rate against a fresh build of
// the mutated corpus. The reported metrics are deterministic (fixed seeds,
// pinned two-wave schedule, scan counters rather than wall-clock), so the
// CI bench artifact flags an adaptation regression as a metric flip:
// retunes/op is the trigger firing at all (1.0 when healthy), and
// scan-recovered-% is how much of the structural decay the retune bought
// back (100 = recovered to the fresh-build rate; the assertions in
// TestAdaptiveDriftRecovery hold it near 100).
func BenchmarkAdaptiveRetune(b *testing.B) {
	const (
		nItems = 240
		nUsers = 60
		d      = 16
		shards = 4
		k      = 10
		rounds = 3
	)
	batch := nItems / (2 * shards)
	users := driftMatrix(b, rand.New(rand.NewSource(41)), nUsers, d, 1, 1)
	items := driftMatrix(b, rand.New(rand.NewSource(7)), nItems, d, 50, 0.98)
	newComposite := func() *Sharded {
		return NewSharded(ShardedConfig{
			Shards:      shards,
			Partitioner: ShardByNorm(),
			Factory:     func() Solver { return NewBMM(BMMConfig{}) },
			Schedule:    ScheduleTwoWave,
		})
	}
	scanU := func(s *Sharded) float64 {
		before := s.ScanStats().Scanned
		if _, err := s.QueryAll(k); err != nil {
			b.Fatal(err)
		}
		return float64(s.ScanStats().Scanned-before) / nUsers
	}
	var retunes, recovered float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newComposite()
		if err := s.Build(users, items); err != nil {
			b.Fatal(err)
		}
		tuner, err := NewAdaptiveTuner(s, AdaptiveConfig{
			Interval: -1, // manual mode: deterministic checks
			Policy:   DriftPolicy{MinChurn: int64(batch)},
		})
		if err != nil {
			b.Fatal(err)
		}
		scanU(s)
		if _, _, err := tuner.Check(); err != nil { // quiet: arms the baseline
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(97))
		for r := 0; r < rounds; r++ {
			if err := trendChurn(s, rng, batch, d); err != nil {
				b.Fatal(err)
			}
		}
		decayed := scanU(s)
		if _, _, err := tuner.Check(); err != nil {
			b.Fatal(err)
		}
		tuned := scanU(s)
		fresh := newComposite()
		if err := fresh.Build(users, s.Items()); err != nil {
			b.Fatal(err)
		}
		freshU := scanU(fresh)
		if decayed > freshU {
			recovered += 100 * (decayed - tuned) / (decayed - freshU)
		}
		retunes += float64(s.Retunes())
		tuner.Close()
	}
	b.StopTimer()
	b.ReportMetric(retunes/float64(b.N), "retunes/op")
	b.ReportMetric(recovered/float64(b.N), "scan-recovered-%")
}

// benchModelAt is benchModel at an explicit scale (the coldstart benchmark
// sweeps scale itself).
func benchModelAt(b *testing.B, name string, scale float64) *dataset.Model {
	b.Helper()
	cfg, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := dataset.Generate(cfg.Scale(scale))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkColdStart — snapshot restore vs fresh build, the serving restart
// path: the build arm pays a full Build from the raw matrices per op, the
// load arm restores the same index from an in-memory snapshot (Persister
// round-trip). The load arm also reports snapshot-bytes and deterministic
// (1 = two consecutive Saves produced identical bytes) — the properties the
// golden-file compatibility tests and content-addressed shard shipping
// rely on, surfaced in the CI bench artifact where a regression is visible
// as a metric flip rather than a wall-clock delta. Compare with
//
//	go test -bench=ColdStart -run=^$ -count=5 | benchstat
func BenchmarkColdStart(b *testing.B) {
	for _, scale := range []float64{0.06, 0.12} {
		m := benchModelAt(b, "r2-nomad-50", scale)
		for _, solver := range []string{"MAXIMUS", "LEMP", "FEXIPRO-SI"} {
			b.Run(fmt.Sprintf("scale=%.2f/%s/build", scale, solver), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := benchSolver(solver)
					if err := s.Build(m.Users, m.Items); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("scale=%.2f/%s/load", scale, solver), func(b *testing.B) {
				solver := solver
				src := benchSolver(solver).(Persister)
				if err := src.(mips.Solver).Build(m.Users, m.Items); err != nil {
					b.Fatal(err)
				}
				var buf bytes.Buffer
				if err := src.Save(&buf); err != nil {
					b.Fatal(err)
				}
				var buf2 bytes.Buffer
				if err := src.Save(&buf2); err != nil {
					b.Fatal(err)
				}
				deterministic := 0.0
				if bytes.Equal(buf.Bytes(), buf2.Bytes()) {
					deterministic = 1.0
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst := benchSolver(solver).(Persister)
					if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(buf.Len()), "snapshot-bytes")
				b.ReportMetric(deterministic, "deterministic")
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
