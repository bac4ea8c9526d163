package optimus

// The Generation contract, pinned across every implementation (the audit
// behind the batched mutation log): the stamp is 0 after Build, advances by
// exactly one per successful AddItems or RemoveItems, and by nothing else —
// failed mutations and AddUsers (user arrival never renumbers item ids)
// leave it untouched, and a re-Build resets it. Serving-layer staleness
// detection (Server.Stats.Generation, the mutation log's id bookkeeping)
// leans on precisely these semantics.

import "testing"

// generationSolvers returns all five ItemMutator implementations: the three
// served solvers, the Naive reference, and the sharded composite. The
// baselines (the cone tree, FEXIPRO) are mutable only through the composite.
func generationSolvers() map[string]Solver {
	return map[string]Solver{
		"BMM":     NewBMM(BMMConfig{}),
		"MAXIMUS": NewMaximus(MaximusConfig{Seed: 2}),
		"LEMP":    NewLEMP(LEMPConfig{Seed: 2}),
		"Naive":   NewNaive(),
		"Sharded": NewSharded(ShardedConfig{
			Shards:      3,
			Partitioner: ShardByNorm(),
			Factory:     func() Solver { return NewBMM(BMMConfig{}) },
		}),
	}
}

func TestGenerationContract(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.04))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := GenerateDataset(cfg.Scale(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for name, solver := range generationSolvers() {
		t.Run(name, func(t *testing.T) {
			mut, ok := solver.(ItemMutator)
			if !ok {
				t.Fatalf("%s is not an ItemMutator", name)
			}
			adder, ok := solver.(UserAdder)
			if !ok {
				t.Fatalf("%s is not a UserAdder", name)
			}
			if err := solver.Build(ds.Users, ds.Items); err != nil {
				t.Fatal(err)
			}
			check := func(step string, want uint64) {
				t.Helper()
				if got := mut.Generation(); got != want {
					t.Fatalf("%s: generation = %d, want %d", step, got, want)
				}
			}
			check("after Build", 0)
			if _, err := mut.AddItems(pool.Items.RowSlice(0, 3)); err != nil {
				t.Fatal(err)
			}
			check("after AddItems", 1)
			if err := mut.RemoveItems([]int{1, 4}); err != nil {
				t.Fatal(err)
			}
			check("after RemoveItems", 2)
			// AddUsers tracks the user side; the item stamp must not move.
			if _, err := adder.AddUsers(pool.Users.RowSlice(0, 2)); err != nil {
				t.Fatal(err)
			}
			check("after AddUsers", 2)
			// Failed mutations leave the stamp (and the index) untouched.
			if _, err := mut.AddItems(nil); err == nil {
				t.Fatal("nil AddItems succeeded")
			}
			check("after failed AddItems", 2)
			if err := mut.RemoveItems([]int{-1}); err == nil {
				t.Fatal("out-of-range RemoveItems succeeded")
			}
			check("after failed RemoveItems", 2)
			nItems := ds.Items.Rows() + 3 - 2
			if err := mut.RemoveItems(rangeIDs(nItems)); err == nil {
				t.Fatal("remove-everything succeeded")
			}
			check("after rejected remove-everything", 2)
			// A fresh Build resets the stamp.
			if err := solver.Build(ds.Users, ds.Items); err != nil {
				t.Fatal(err)
			}
			check("after re-Build", 0)
		})
	}
}

func rangeIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestGenerationAgreesWithServing couples the solver stamp to the serving
// generation: one coalesced Mutate over several events is one serving tick,
// while the solver stamp counts the events — and user-arrival maintenance
// ticks neither.
func TestGenerationAgreesWithServing(t *testing.T) {
	cfg, err := DatasetByName("r2-nomad-10")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(cfg.Scale(0.04))
	if err != nil {
		t.Fatal(err)
	}
	solver := NewNaive()
	if err := solver.Build(ds.Users, ds.Items); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(solver, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Mutate(func(m ItemMutator) error {
		if _, err := m.AddItems(ds.Items.RowSlice(0, 2)); err != nil {
			return err
		}
		return m.RemoveItems([]int{0})
	}); err != nil {
		t.Fatal(err)
	}
	if g, s := solver.Generation(), srv.Stats().Generation; g != 2 || s != 1 {
		t.Fatalf("solver generation %d (want 2: two events), serving generation %d (want 1: one batch)", g, s)
	}
	if err := srv.Mutate(func(m ItemMutator) error {
		_, err := m.(UserAdder).AddUsers(ds.Users.RowSlice(0, 1))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if g, s := solver.Generation(), srv.Stats().Generation; g != 2 || s != 1 {
		t.Fatalf("user arrival moved a generation: solver %d, serving %d", g, s)
	}
}
