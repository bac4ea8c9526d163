package mips_test

// Cross-solver mutable-corpus conformance: every ItemMutator in the
// repository is driven through interleaved AddItems/RemoveItems and checked
// against the VerifyMutation oracle — results must be entry-for-entry
// identical to Naive over the mutated corpus, after every step.
// (The package is mips_test so the contract tests can exercise the concrete
// solvers without an import cycle.)

import (
	"fmt"
	"math/rand"
	"testing"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
)

// mutatorFactories is the full ItemMutator conformance matrix: the three
// served solvers, which patch in place, and the trivial Naive reference. The
// baselines (cone tree, FEXIPRO) implement no mutation contract; the
// composite's rebuild path covers them (internal/shard).
func mutatorFactories() map[string]mips.Factory {
	return map[string]mips.Factory{
		"BMM":     func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
		"MAXIMUS": func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 3}) },
		"LEMP":    func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
		"Naive":   func() mips.Solver { return mips.NewNaive() },
	}
}

func conformanceModel(t testing.TB, seedOffset int64) *dataset.Model {
	t.Helper()
	cfg, err := dataset.ByName("r2-nomad-25")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scale(0.04)
	cfg.Seed += seedOffset
	m, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pickRemovals draws distinct ids from [0, n) deterministically.
func pickRemovals(rng *rand.Rand, n, count int) []int {
	ids := rng.Perm(n)[:count]
	return ids
}

func TestItemMutatorsMatchFreshBuild(t *testing.T) {
	m := conformanceModel(t, 0)
	pool := conformanceModel(t, 977).Items // arrival stream, same f
	const k = 7
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			mut, ok := s.(mips.ItemMutator)
			if !ok {
				t.Fatalf("%s does not implement mips.ItemMutator", name)
			}
			if g := mut.Generation(); g != 0 {
				t.Fatalf("generation after Build = %d, want 0", g)
			}
			corpus := m.Items // expected mutated corpus, maintained in parallel
			rng := rand.New(rand.NewSource(11))
			next := 0 // cursor into the arrival pool
			wantGen := uint64(0)

			step := func(op string, fn func() error) {
				t.Helper()
				if err := fn(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				wantGen++
				if g := mut.Generation(); g != wantGen {
					t.Fatalf("%s: generation = %d, want %d", op, g, wantGen)
				}
				if err := mips.VerifyMutation(s, m.Users, corpus, k); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
			}

			// A churn schedule with both single and batched operations.
			for round, batch := range []int{1, 5, 17} {
				add := pool.RowSlice(next, next+batch)
				next += batch
				step(fmt.Sprintf("round %d add %d", round, batch), func() error {
					base := corpus.Rows()
					ids, err := mut.AddItems(add)
					if err != nil {
						return err
					}
					for i, id := range ids {
						if id != base+i {
							return fmt.Errorf("assigned id %d, want %d", id, base+i)
						}
					}
					corpus = mat.AppendRows(corpus, add)
					return nil
				})
				remove := pickRemovals(rng, corpus.Rows(), batch)
				step(fmt.Sprintf("round %d remove %d", round, batch), func() error {
					if err := mut.RemoveItems(remove); err != nil {
						return err
					}
					sorted, err := mips.ValidateRemoveIDs(remove, corpus.Rows())
					if err != nil {
						return err
					}
					corpus = mat.RemoveRows(corpus, sorted)
					return nil
				})
			}
		})
	}
}

// TestItemMutatorErrorAtomicity: a rejected mutation must leave the solver —
// results and generation — untouched.
func TestItemMutatorErrorAtomicity(t *testing.T) {
	m := conformanceModel(t, 0)
	const k = 5
	bad, err := mat.FromRows([][]float64{{1, 2}}) // wrong factor count
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			mut := s.(mips.ItemMutator)
			n := m.Items.Rows()
			if _, err := mut.AddItems(bad); err == nil {
				t.Fatal("AddItems accepted a factor-count mismatch")
			}
			if _, err := mut.AddItems(nil); err == nil {
				t.Fatal("AddItems accepted nil")
			}
			for _, ids := range [][]int{{-1}, {n}, {0, 0}, mips.IDRange(0, n), nil} {
				if err := mut.RemoveItems(ids); err == nil {
					t.Fatalf("RemoveItems accepted %v", ids)
				}
			}
			if g := mut.Generation(); g != 0 {
				t.Fatalf("generation advanced to %d on failed mutations", g)
			}
			if err := mips.VerifyMutation(s, m.Users, m.Items, k); err != nil {
				t.Fatalf("solver state disturbed by rejected mutations: %v", err)
			}
		})
	}
}

// TestAddUsersMatchesFreshBuild: every solver accepts dynamic user arrival,
// and post-arrival results are entry-for-entry what Naive returns over the
// grown user matrix.
func TestAddUsersMatchesFreshBuild(t *testing.T) {
	m := conformanceModel(t, 0)
	arrivals := conformanceModel(t, 431).Users.RowSlice(0, 9)
	const k = 7
	for name, factory := range mutatorFactories() {
		t.Run(name, func(t *testing.T) {
			s := factory()
			if err := s.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			ua, ok := s.(mips.UserAdder)
			if !ok {
				t.Fatalf("%s does not implement mips.UserAdder", name)
			}
			base := m.Users.Rows()
			ids, err := ua.AddUsers(arrivals)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if id != base+i {
					t.Fatalf("assigned id %d, want %d", id, base+i)
				}
			}
			grown := mat.AppendRows(m.Users, arrivals)
			if err := mips.VerifyMutation(s, grown, m.Items, k); err != nil {
				t.Fatal(err)
			}
			// Items can churn after users arrive, and vice versa.
			mut := s.(mips.ItemMutator)
			add := conformanceModel(t, 977).Items.RowSlice(0, 4)
			if _, err := mut.AddItems(add); err != nil {
				t.Fatal(err)
			}
			corpus := mat.AppendRows(m.Items, add)
			if err := mut.RemoveItems([]int{0, corpus.Rows() - 2}); err != nil {
				t.Fatal(err)
			}
			corpus = mat.RemoveRows(corpus, []int{0, corpus.Rows() - 2})
			if err := mips.VerifyMutation(s, grown, corpus, k); err != nil {
				t.Fatal(err)
			}
		})
	}
}
