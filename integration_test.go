package optimus

// Cross-module integration tests: every solver, every dataset regime, one
// agreement matrix. These are the tests a downstream adopter would trust
// before swapping solvers in production.

import (
	"context"
	"sync"
	"testing"
)

// allSolvers builds one of each exact solver through the public facade,
// including the item-sharded composites (which must agree with everything
// else at any shard count and partitioning).
func allSolvers() []Solver {
	return []Solver{
		NewBMM(BMMConfig{}),
		NewMaximus(MaximusConfig{Seed: 9}),
		NewMaximus(MaximusConfig{Seed: 9, DisableItemBlocking: true}),
		NewLEMP(LEMPConfig{Seed: 9}),
		NewFexipro(FexiproConfig{Variant: FexiproSI}),
		NewFexipro(FexiproConfig{Variant: FexiproSIR}),
		NewConeTree(ConeTreeConfig{}),
		NewNaive(),
		NewSharded(ShardedConfig{
			Shards:  3,
			Factory: func() Solver { return NewBMM(BMMConfig{}) },
		}),
		NewSharded(ShardedConfig{
			Shards:      4,
			Partitioner: ShardByNorm(),
			Factory:     func() Solver { return NewMaximus(MaximusConfig{Seed: 9}) },
		}),
		// Two-wave threshold propagation (ByNorm + floor-capable sub-solver)
		// and its single-wave lesion must both agree with everything else.
		NewSharded(ShardedConfig{
			Shards:      3,
			Partitioner: ShardByNorm(),
			Factory:     func() Solver { return NewLEMP(LEMPConfig{Seed: 9}) },
		}),
		NewSharded(ShardedConfig{
			Shards:      3,
			Partitioner: ShardByNorm(),
			Schedule:    ScheduleSingle,
			Factory:     func() Solver { return NewLEMP(LEMPConfig{Seed: 9}) },
		}),
	}
}

// TestAllSolversAgreeOnEveryRegime runs the full solver set over one model
// per dataset family and checks that each returns exactly Naive's answer
// (VerifyAll), so all of them agree entry for entry.
func TestAllSolversAgreeOnEveryRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix is not short")
	}
	models := []string{
		"netflix-dsgd-50", "netflix-nomad-25", "netflix-bpr-25",
		"r2-nomad-25", "kdd-nomad-25", "kdd-ref-51", "glove-50",
	}
	const k = 7
	for _, name := range models {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg, err := DatasetByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := GenerateDataset(cfg.Scale(0.05))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range allSolvers() {
				if err := s.Build(ds.Users, ds.Items); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				res, err := s.QueryAll(k)
				if err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
				if err := VerifyAll(ds.Users, ds.Items, res, k); err != nil {
					t.Fatalf("%s: %v", s.Name(), err)
				}
			}
		})
	}
}

// TestConcurrentQueriesOnSharedIndex pins the "read-only after Build, safe
// for concurrent queries" contract for every index — including LEMP, whose
// lazy per-K tuning is the one mutable-after-Build structure (guarded by a
// mutex). Run with -race to make this meaningful.
func TestConcurrentQueriesOnSharedIndex(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allSolvers() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			if err := s.Build(ds.Users, ds.Items); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					// Different goroutines use different K so LEMP's tuning
					// cache is written concurrently.
					k := 1 + g%4
					ids := []int{g % ds.Users.Rows(), (g * 7) % ds.Users.Rows()}
					res, err := s.Query(ids, k)
					if err != nil {
						errs <- err
						return
					}
					for i, u := range ids {
						if err := VerifyTopK(ds.Users.Row(u), ds.Items, res[i], k); err != nil {
							errs <- err
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestOptimusAgainstEveryIndex runs the optimizer with each index type as
// its candidate and checks the final batch answers stay exact regardless of
// which side wins.
func TestOptimusAgainstEveryIndex(t *testing.T) {
	cfg, err := DatasetByName("netflix-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	indexes := []Solver{
		NewMaximus(MaximusConfig{Seed: 3}),
		NewLEMP(LEMPConfig{Seed: 3}),
		NewFexipro(FexiproConfig{Variant: FexiproSI}),
		NewFexipro(FexiproConfig{Variant: FexiproSIR}),
		NewConeTree(ConeTreeConfig{}),
	}
	for _, idx := range indexes {
		idx := idx
		t.Run(idx.Name(), func(t *testing.T) {
			opt := NewOptimus(OptimusConfig{
				SampleFraction: 0.1, L2CacheBytes: 1 << 10, Seed: 4,
			}, idx)
			dec, res, err := opt.Run(ds.Users, ds.Items, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyAll(ds.Users, ds.Items, res, 4); err != nil {
				t.Fatalf("winner %s: %v", dec.Winner, err)
			}
		})
	}
}

// TestDatasetRegimesDriveOptimusDecisions is the end-to-end story of the
// paper: BMM-regime models should steer OPTIMUS to BMM, index-regime models
// to the index, through the public API alone.
func TestDatasetRegimesDriveOptimusDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("decision test is not short")
	}
	// The index-friendly case comes from the registry (kdd regime, ~10×
	// margin). The BMM-friendly case is an explicit unprunable config —
	// isotropic users, flat norms — because the registry's Netflix margins
	// are deliberately thin (that is the paper's point) and too close to
	// assert on under timing noise.
	unprunable := DatasetConfig{
		Name: "unprunable", Users: 1500, Items: 1200, Factors: 32,
		TrueClusters: 4, UserSpread: 2.0, NormSigma: 0.01, ItemAlign: 0, Seed: 42,
	}
	kdd, err := DatasetByName("kdd-nomad-25")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg    DatasetConfig
		expect string
	}{
		{unprunable, "BMM"},
		{kdd.Scale(0.25), "MAXIMUS"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.cfg.Name, func(t *testing.T) {
			ds, err := GenerateDataset(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The decision is a wall-clock measurement; on a loaded or
			// race-instrumented runner a single sample can flip a close
			// crossover, so a wrong winner gets two re-measurements
			// before the test fails. A real regime regression fails all
			// three; scheduler noise does not.
			const attempts = 3
			for attempt := 1; ; attempt++ {
				opt := NewOptimus(OptimusConfig{
					SampleFraction: 0.05, L2CacheBytes: 8 << 10, Seed: 5,
				}, NewMaximus(MaximusConfig{Seed: 5}))
				dec, res, err := opt.Run(ds.Users, ds.Items, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyAll(ds.Users, ds.Items, res, 1); err != nil {
					t.Fatal(err)
				}
				if dec.Winner == tc.expect {
					break
				}
				bmm, _ := dec.EstimateFor("BMM")
				mx, _ := dec.EstimateFor("MAXIMUS")
				if attempt == attempts {
					t.Fatalf("winner %s, want %s in %d attempts (BMM est %v, MAXIMUS est %v)",
						dec.Winner, tc.expect, attempts, bmm.Total, mx.Total)
				}
				t.Logf("attempt %d: winner %s, want %s (BMM est %v, MAXIMUS est %v); re-measuring",
					attempt, dec.Winner, tc.expect, bmm.Total, mx.Total)
			}
		})
	}
}

// TestServerOverOptimusChoice wires the serving layer over whichever solver
// OPTIMUS picks — the full production composition.
func TestServerOverOptimusChoice(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	idx := NewMaximus(MaximusConfig{Seed: 6})
	opt := NewOptimus(OptimusConfig{SampleFraction: 0.1, L2CacheBytes: 1 << 10, Seed: 6}, idx)
	dec, _, err := opt.Run(ds.Users, ds.Items, 3)
	if err != nil {
		t.Fatal(err)
	}
	var chosen Solver = NewBMM(BMMConfig{})
	if dec.Winner == "MAXIMUS" {
		chosen = idx
	}
	if err := chosen.Build(ds.Users, ds.Items); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(chosen, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Query(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTopK(ds.Users.Row(0), ds.Items, res, 3); err != nil {
		t.Fatal(err)
	}
}

// TestServerOverShardedPlanner routes serving-layer batches through the
// item-sharded executor with per-shard OPTIMUS planning — the full
// production stack: micro-batching front end, shard fan-out, per-shard
// strategy choice, k-way merge.
func TestServerOverShardedPlanner(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(ShardedConfig{
		Shards:      2,
		Partitioner: ShardByNorm(),
		Planner: NewShardPlanner(OptimusConfig{
			SampleFraction: 0.1, L2CacheBytes: 1 << 10, Seed: 8,
		}, 3, func() Solver { return NewMaximus(MaximusConfig{Seed: 8}) }),
	})
	if err := sh.Build(ds.Users, ds.Items); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sh, ServerConfig{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			u := g % ds.Users.Rows()
			k := 1 + g%5
			res, err := srv.Query(context.Background(), u, k)
			if err != nil {
				errs <- err
				return
			}
			if err := VerifyTopK(ds.Users.Row(u), ds.Items, res, k); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMutableLifecycleEndToEnd drives the full vertical through the public
// facade: a planner-built by-norm composite behind the micro-batching
// server, live item churn through Server.Mutate, dynamic user arrival
// through Sharded.AddUsers, and the VerifyMutation oracle at every step —
// the downstream adopter's mutable-corpus smoke test.
func TestMutableLifecycleEndToEnd(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	poolCfg := cfg.Scale(0.05)
	poolCfg.Seed += 977
	pool, err := GenerateDataset(poolCfg)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5

	sh := NewSharded(ShardedConfig{
		Shards:      3,
		Partitioner: ShardByNorm(),
		Factory:     func() Solver { return NewLEMP(LEMPConfig{Seed: 9}) },
	})
	if err := sh.Build(ds.Users, ds.Items); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sh, ServerConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Churn the catalog through the serving layer.
	arrivals := pool.Items.RowSlice(0, 6)
	corpus := ds.Items
	if err := srv.Mutate(func(m ItemMutator) error {
		if _, err := m.AddItems(arrivals); err != nil {
			return err
		}
		corpus = AppendMatrixRows(corpus, arrivals)
		if err := m.RemoveItems([]int{2, 3, corpus.Rows() - 1}); err != nil {
			return err
		}
		corpus = RemoveMatrixRows(corpus, []int{2, 3, corpus.Rows() - 1})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if g := srv.Stats().Generation; g != 1 {
		t.Fatalf("server generation = %d, want 1", g)
	}
	if g := sh.Generation(); g != 2 {
		t.Fatalf("solver generation = %d, want 2", g)
	}
	if err := VerifyMutation(sh, ds.Users, corpus, k); err != nil {
		t.Fatal(err)
	}

	// New users arrive; the server answers them exactly (after the swap).
	users := ds.Users
	newUsers := pool.Users.RowSlice(0, 4)
	if err := srv.Mutate(func(ItemMutator) error {
		_, err := sh.AddUsers(newUsers)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	users = AppendMatrixRows(users, newUsers)
	res, err := srv.Query(context.Background(), users.Rows()-1, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTopK(users.Row(users.Rows()-1), corpus, res, k); err != nil {
		t.Fatal(err)
	}
	if err := VerifyMutation(sh, users, corpus, k); err != nil {
		t.Fatal(err)
	}
}

// TestPerUserWalkersBatchEqualsSingles pins what lets the per-user walkers
// cut a served batch into small chunks: users are independent and the scan
// meter is additive, so a 64-id batch with repeated users returns, entry for
// entry and at any thread count, what 64 single-id queries return — and
// scans exactly as many candidates.
func TestPerUserWalkersBatchEqualsSingles(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.3))
	if err != nil {
		t.Fatal(err)
	}
	const k = 7
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i * 37 % 45 * 11 // 45 distinct users, 19 repeats
	}
	type walker interface {
		Solver
		SetThreads(int)
	}
	for _, s := range []walker{
		NewLEMP(LEMPConfig{Seed: 9}),
		NewConeTree(ConeTreeConfig{}),
		NewFexipro(FexiproConfig{Variant: FexiproSI}),
	} {
		if err := s.Build(ds.Users, ds.Items); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// scanned runs fn and returns the candidates it scanned (0 for a
		// solver without a scan meter).
		scanned := func(fn func()) int64 {
			sc, ok := s.(ScanCounter)
			if !ok {
				fn()
				return 0
			}
			sc.ResetScanStats()
			fn()
			return sc.ScanStats().Scanned
		}
		s.SetThreads(1)
		want := make([][]Entry, len(ids))
		wantScan := scanned(func() {
			for i, u := range ids {
				res, err := s.Query([]int{u}, k)
				if err != nil {
					t.Fatalf("%s: user %d: %v", s.Name(), u, err)
				}
				want[i] = res[0]
			}
		})
		for _, threads := range []int{1, 2, 8} {
			s.SetThreads(threads)
			var got [][]Entry
			gotScan := scanned(func() {
				if got, err = s.Query(ids, k); err != nil {
					t.Fatalf("%s threads=%d: %v", s.Name(), threads, err)
				}
			})
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s threads=%d: row %d has %d entries, singles %d",
						s.Name(), threads, i, len(got[i]), len(want[i]))
				}
				for r := range want[i] {
					if got[i][r] != want[i][r] {
						t.Fatalf("%s threads=%d: row %d rank %d = %v, singles %v",
							s.Name(), threads, i, r, got[i][r], want[i][r])
					}
				}
			}
			if gotScan != wantScan {
				t.Fatalf("%s threads=%d: batch scanned %d candidates, singles %d",
					s.Name(), threads, gotScan, wantScan)
			}
		}
	}
}
