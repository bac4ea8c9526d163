package shard

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"optimus/internal/core"
	"optimus/internal/fexipro"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// arrivalPool generates item vectors (same factor count as the model) to
// feed AddItems, from an independently seeded model.
func arrivalPool(t *testing.T, name string, scale float64) *mat.Matrix {
	t.Helper()
	m := model(t, name, scale)
	return m.Items
}

// TestShardedMutationMatchesFreshBuild is the sharded half of the tentpole
// invariant: after interleaved AddItems/RemoveItems, the composite answers
// entry-for-entry like a freshly built composite — and a freshly built
// unsharded solver — over the mutated corpus, for every sub-solver type,
// partitioner, and shard count.
func TestShardedMutationMatchesFreshBuild(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	pool := arrivalPool(t, "netflix-nomad-25", 0.04)
	const k = 7
	for sub, factory := range factories() {
		for _, part := range []Partitioner{Contiguous(), ByNorm()} {
			for _, shards := range []int{1, 2, 4} {
				name := fmt.Sprintf("%s/%s/S=%d", sub, part.Name(), shards)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Shards: shards, Partitioner: part, Factory: factory}
					sh := New(cfg)
					if err := sh.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
					corpus := m.Items
					apply := func(op string, fn func() error) {
						t.Helper()
						if err := fn(); err != nil {
							t.Fatalf("%s: %v", op, err)
						}
						if err := mips.VerifyMutation(sh, m.Users, corpus, k); err != nil {
							t.Fatalf("%s: %v", op, err)
						}
					}
					add := pool.RowSlice(0, 11)
					apply("add 11", func() error {
						if _, err := sh.AddItems(add); err != nil {
							return err
						}
						corpus = mat.AppendRows(corpus, add)
						return nil
					})
					remove := []int{0, 3, corpus.Rows() / 2, corpus.Rows() - 1}
					apply("remove 4", func() error {
						if err := sh.RemoveItems(remove); err != nil {
							return err
						}
						corpus = mat.RemoveRows(corpus, remove)
						return nil
					})
					add2 := pool.RowSlice(11, 16)
					apply("add 5 more", func() error {
						if _, err := sh.AddItems(add2); err != nil {
							return err
						}
						corpus = mat.AppendRows(corpus, add2)
						return nil
					})
					if got, want := sh.Generation(), uint64(3); got != want {
						t.Fatalf("generation = %d, want %d", got, want)
					}
					if st := sh.MutationStats(); st.Mutations != 3 || st.Dirty() == 0 {
						t.Fatalf("unexpected mutation stats %+v", st)
					}
				})
			}
		}
	}
}

// TestMutationFloorPrefix: mutation × floors. After churn, seeded (two-wave
// capable) queries still satisfy the floor contract — VerifyFloorPrefix
// against the unseeded results of the same mutated composite — across the
// solver × ByNorm × shard-count matrix the lifecycle issue pins.
func TestMutationFloorPrefix(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	pool := arrivalPool(t, "netflix-nomad-25", 0.04)
	const k = 6
	userIDs := mips.AllUserIDs(m.Users.Rows())
	subs := factories()
	subs["FEXIPRO-SI"] = func() mips.Solver { return fexipro.New(fexipro.Config{}) }
	for _, sub := range []string{"BMM", "LEMP", "MAXIMUS", "ConeTree", "FEXIPRO-SI"} {
		factory := subs[sub]
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/S=%d", sub, shards), func(t *testing.T) {
				sh := New(Config{Shards: shards, Partitioner: ByNorm(), Factory: factory})
				if err := sh.Build(m.Users, m.Items); err != nil {
					t.Fatal(err)
				}
				if _, err := sh.AddItems(pool.RowSlice(0, 9)); err != nil {
					t.Fatal(err)
				}
				if err := sh.RemoveItems([]int{1, 5, m.Items.Rows() - 1}); err != nil {
					t.Fatal(err)
				}
				unseeded, err := sh.Query(userIDs, k)
				if err != nil {
					t.Fatal(err)
				}
				floors := make([]float64, len(userIDs))
				for i, row := range unseeded {
					switch i % 3 {
					case 0:
						floors[i] = math.Inf(-1)
					case 1:
						floors[i] = row[k/2].Score
					default:
						floors[i] = row[0].Score
					}
				}
				seeded, err := sh.QueryCtx(nil, userIDs, k, mips.QueryOptions{Floors: floors})
				if err != nil {
					t.Fatal(err)
				}
				if err := mips.VerifyFloorPrefix(unseeded, seeded, floors); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// shardOfNorm returns the index of the Build-recorded norm range that v
// falls in — the routing rule AddItems applies.
func shardOfNorm(s *Sharded, v float64) int {
	for i, floor := range s.normFloor {
		if v >= floor {
			return i
		}
	}
	return len(s.normFloor) - 1
}

// TestDirtyShardIsolation pins the acceptance criterion: a mutation confined
// to one shard's norm range triggers exactly one shard rebuild + re-plan
// under the OPTIMUS planner (Plans()/Builds regression), and exactly one
// incremental patch under a mutator-capable factory.
func TestDirtyShardIsolation(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	const S = 4

	// An arrival aimed at an interior shard: clone a vector whose norm sits
	// strictly inside shard 2's Build-time range.
	probeFor := func(s *Sharded) *mat.Matrix {
		norms := m.Items.RowNorms()
		for id, v := range norms {
			if shardOfNorm(s, v) == 2 && v > s.normFloor[2] && v < s.normFloor[1] {
				probe := mat.New(1, m.Items.Cols())
				copy(probe.Row(0), m.Items.Row(id))
				return probe
			}
		}
		t.Fatal("no item strictly interior to shard 2's norm range")
		return nil
	}

	t.Run("planner-replans-one-shard", func(t *testing.T) {
		sh := New(Config{
			Shards:      S,
			Partitioner: ByNorm(),
			Planner: NewOptimusPlanner(core.OptimusConfig{Seed: 5}, 7,
				func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 7}) }),
		})
		if err := sh.Build(m.Users, m.Items); err != nil {
			t.Fatal(err)
		}
		for _, p := range sh.Plans() {
			if p.Builds != 1 {
				t.Fatalf("after Build, shard builds = %+v", sh.Plans())
			}
		}
		if _, err := sh.AddItems(probeFor(sh)); err != nil {
			t.Fatal(err)
		}
		for si, p := range sh.Plans() {
			want := 1
			if si == 2 {
				want = 2 // the dirty shard was re-planned, nothing else
			}
			if p.Builds != want {
				t.Fatalf("shard %d builds = %d, want %d (plans %+v)", si, p.Builds, want, sh.Plans())
			}
		}
		if st := sh.MutationStats(); st.Rebuilds != 1 || st.Patches != 0 || st.Dirty() != 1 {
			t.Fatalf("planner mutation stats %+v, want exactly one rebuild", st)
		}
		// The re-plan is still a real plan: the dirty shard reports a
		// strategy and the composite still answers exactly.
		if sh.Plans()[2].Solver == "" {
			t.Fatal("re-planned shard lost its strategy name")
		}
		corpus := mat.AppendRows(m.Items, probeFor(sh))
		if err := mips.VerifyMutation(sh, m.Users, corpus, 7); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("factory-patches-one-shard", func(t *testing.T) {
		sh := New(Config{
			Shards:      S,
			Partitioner: ByNorm(),
			Factory:     func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 7}) },
		})
		if err := sh.Build(m.Users, m.Items); err != nil {
			t.Fatal(err)
		}
		probe := probeFor(sh)
		if _, err := sh.AddItems(probe); err != nil {
			t.Fatal(err)
		}
		for si, p := range sh.Plans() {
			if p.Builds != 1 {
				t.Fatalf("shard %d rebuilt under a patch-capable factory (plans %+v)", si, sh.Plans())
			}
		}
		if st := sh.MutationStats(); st.Patches != 1 || st.Rebuilds != 0 {
			t.Fatalf("factory mutation stats %+v, want exactly one patch", st)
		}
		// Removal from one shard stays confined too.
		norms := m.Items.RowNorms()
		victim := -1
		for id, v := range norms {
			if shardOfNorm(sh, v) == 1 && v > sh.normFloor[1] && v < sh.normFloor[0] {
				victim = id
				break
			}
		}
		if victim < 0 {
			t.Fatal("no removable item interior to shard 1")
		}
		if err := sh.RemoveItems([]int{victim}); err != nil {
			t.Fatal(err)
		}
		if st := sh.MutationStats(); st.Patches != 2 || st.Rebuilds != 0 || st.Dirty() != 2 {
			t.Fatalf("after one add + one remove, stats %+v, want two patches", st)
		}
	})
}

// TestEmptyShardLifecycle: removals may empty a shard entirely; the
// composite keeps answering exactly, SetThreads skips the workerless shard,
// and a later arrival in that norm range revives the shard with a rebuild.
func TestEmptyShardLifecycle(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.03)
	const S = 3
	const k = 5
	sh := New(Config{Shards: S, Partitioner: ByNorm(),
		Factory: func() mips.Solver { return core.NewBMM(core.BMMConfig{}) }})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	// Empty the head shard: remove every item whose norm routes to shard 0.
	norms := m.Items.RowNorms()
	var headIDs []int
	for id, v := range norms {
		if shardOfNorm(sh, v) == 0 {
			headIDs = append(headIDs, id)
		}
	}
	if err := sh.RemoveItems(headIDs); err != nil {
		t.Fatal(err)
	}
	if sh.Plans()[0].Items != 0 {
		t.Fatalf("head shard not empty: %+v", sh.Plans())
	}
	if sh.ActiveSchedule() == TwoWave {
		t.Fatal("two-wave path survived a dead head shard")
	}
	if st := sh.MutationStats(); st.Emptied != 1 || st.Dirty() != 1 {
		t.Fatalf("emptying one shard reported stats %+v, want exactly one Emptied dirty shard", st)
	}
	sh.SetThreads(2)
	corpus := mat.RemoveRows(m.Items, headIDs)
	if err := mips.VerifyMutation(sh, m.Users, corpus, k); err != nil {
		t.Fatal(err)
	}
	// Revive: an arrival above shard 0's floor rebuilds the dead shard.
	revive := m.Items.SelectRows(headIDs[:3])
	if _, err := sh.AddItems(revive); err != nil {
		t.Fatal(err)
	}
	if sh.Plans()[0].Items != 3 || sh.Plans()[0].Builds != 2 {
		t.Fatalf("revived head shard state %+v", sh.Plans()[0])
	}
	if sh.ActiveSchedule() != TwoWave {
		t.Fatal("two-wave path did not return with the revived head")
	}
	corpus = mat.AppendRows(corpus, revive)
	if err := mips.VerifyMutation(sh, m.Users, corpus, k); err != nil {
		t.Fatal(err)
	}
}

// TestShardedAddUsers: dynamic user arrival through the shard layer —
// sharded post-arrival results are Naive's over the grown user matrix,
// entry for entry, for both new and old users.
func TestShardedAddUsers(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	arrivals := model(t, "r2-nomad-25", 0.02).Users.RowSlice(0, 7)
	const k = 7
	factory := func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 3}) }
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			sh := New(Config{Shards: shards, Partitioner: ByNorm(), Factory: factory})
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			basen := m.Users.Rows()
			ids, err := sh.AddUsers(arrivals)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != arrivals.Rows() || ids[0] != basen {
				t.Fatalf("assigned ids %v, want [%d,%d)", ids, basen, basen+arrivals.Rows())
			}
			if got := sh.NumUsers(); got != basen+arrivals.Rows() {
				t.Fatalf("NumUsers = %d, want %d", got, basen+arrivals.Rows())
			}
			got, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			grown := mat.AppendRows(m.Users, arrivals)
			if err := mips.VerifyAll(grown, m.Items, got, k); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFexiproJoinsTwoWave: a FEXIPRO-sharded by-norm composite takes the
// two-wave path, its QueryCtx seeding the bound cascade with floors, and
// still answers Naive's entries, as the blind fan-out does.
func TestFexiproJoinsTwoWave(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	const k = 7
	factory := func() mips.Solver { return fexipro.New(fexipro.Config{}) }
	for _, shards := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			seeded := New(Config{Shards: shards, Partitioner: ByNorm(), Factory: factory})
			if err := seeded.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			if seeded.ActiveSchedule() != TwoWave {
				t.Fatal("FEXIPRO sharded by-norm did not enable the two-wave path")
			}
			blind := New(Config{Shards: shards, Partitioner: ByNorm(), Factory: factory,
				Schedule: SingleWave})
			if err := blind.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			got, err := seeded.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			blindRes, err := blind.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.VerifyAll(m.Users, m.Items, got, k); err != nil {
				t.Fatal(err)
			}
			if err := mips.SameRows(blindRes, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// faultyUserAdder wraps a real solver and fails the Nth AddUsers call the
// wrapper family sees (shared counter) — either with an error or, worse, by
// mutating and then violating the id contract. Everything else delegates.
type faultyUserAdder struct {
	inner   mips.Solver
	calls   *int // shared across the factory's instances
	failAt  int  // 1-based AddUsers call to sabotage; 0 disables
	violate bool // false: clean error; true: mutate, then return wrong ids
}

func (f *faultyUserAdder) Name() string                 { return "faulty(" + f.inner.Name() + ")" }
func (f *faultyUserAdder) Batches() bool                { return f.inner.Batches() }
func (f *faultyUserAdder) Build(u, i *mat.Matrix) error { return f.inner.Build(u, i) }
func (f *faultyUserAdder) Query(ids []int, k int) ([][]topk.Entry, error) {
	return f.inner.Query(ids, k)
}
func (f *faultyUserAdder) QueryAll(k int) ([][]topk.Entry, error) { return f.inner.QueryAll(k) }
func (f *faultyUserAdder) QueryCtx(ctx context.Context, ids []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	return f.inner.QueryCtx(ctx, ids, k, opts)
}

func (f *faultyUserAdder) AddUsers(users *mat.Matrix) ([]int, error) {
	*f.calls++
	if f.failAt > 0 && *f.calls == f.failAt {
		if !f.violate {
			return nil, fmt.Errorf("injected AddUsers failure")
		}
		ids, err := f.inner.(mips.UserAdder).AddUsers(users) // mutates for real
		if err != nil {
			return nil, err
		}
		for i := range ids {
			ids[i]++ // then lies about the assigned ids
		}
		return ids, nil
	}
	return f.inner.(mips.UserAdder).AddUsers(users)
}

// buildFailer wraps a real solver and fails the Nth Build call the
// wrapper family sees (shared counter; Build runs shards in parallel). It
// implements mips.Solver only, so
// a composite over it takes the rebuild path for every mutation and user
// arrival — a baseline whose rebuild can be made to fail.
type buildFailer struct {
	inner  mips.Solver
	builds *atomic.Int64 // shared across the factory's instances
	failAt *int64        // 1-based Build call to fail; 0 disables
}

func (f *buildFailer) Name() string  { return "failing(" + f.inner.Name() + ")" }
func (f *buildFailer) Batches() bool { return f.inner.Batches() }
func (f *buildFailer) Build(u, i *mat.Matrix) error {
	if n := f.builds.Add(1); *f.failAt > 0 && n == *f.failAt {
		return fmt.Errorf("injected Build failure")
	}
	return f.inner.Build(u, i)
}
func (f *buildFailer) Query(ids []int, k int) ([][]topk.Entry, error) {
	return f.inner.Query(ids, k)
}
func (f *buildFailer) QueryAll(k int) ([][]topk.Entry, error) { return f.inner.QueryAll(k) }
func (f *buildFailer) QueryCtx(ctx context.Context, ids []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	return f.inner.QueryCtx(ctx, ids, k, opts)
}

// TestCompositeMakesBaselineMutable: FEXIPRO implements neither mutation
// contract, yet a by-norm composite over it takes AddItems, RemoveItems and
// AddUsers, answering like a fresh build after each — every dirty shard
// rebuilt, none patched — and a user arrival whose rebuild fails leaves the
// composite answering exactly as before.
func TestCompositeMakesBaselineMutable(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	pool := arrivalPool(t, "netflix-nomad-25", 0.04)
	arrivals := model(t, "r2-nomad-25", 0.02).Users.RowSlice(0, 5)
	const k = 7
	factory := func() mips.Solver { return fexipro.New(fexipro.Config{}) }
	if _, ok := factory().(mips.ItemMutator); ok {
		t.Fatal("FEXIPRO is an ItemMutator; this test needs a baseline")
	}
	if _, ok := factory().(mips.UserAdder); ok {
		t.Fatal("FEXIPRO is a UserAdder; this test needs a baseline")
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			cfg := Config{Shards: shards, Partitioner: ByNorm(), Factory: factory}
			sh := New(cfg)
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			users, corpus := m.Users, m.Items
			step := func(op string, wantGen uint64, fn func() error) {
				t.Helper()
				before := sh.MutationStats()
				if err := fn(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				if err := mips.VerifyMutation(sh, users, corpus, k); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				st := sh.MutationStats()
				if st.Patches != 0 || st.Emptied != 0 || st.Rebuilds != st.Dirty() ||
					st.Rebuilds == before.Rebuilds {
					t.Fatalf("%s: stats %+v (before %+v), want every dirty shard rebuilt", op, st, before)
				}
				if got := sh.Generation(); got != wantGen {
					t.Fatalf("%s: generation = %d, want %d", op, got, wantGen)
				}
			}
			add := pool.RowSlice(0, 9)
			step("add 9", 1, func() error {
				_, err := sh.AddItems(add)
				corpus = mat.AppendRows(corpus, add)
				return err
			})
			remove := []int{0, corpus.Rows() / 2, corpus.Rows() - 1}
			step("remove 3", 2, func() error {
				corpus = mat.RemoveRows(corpus, remove)
				return sh.RemoveItems(remove)
			})
			rebuilds := sh.MutationStats().Rebuilds
			step("add users", 2, func() error {
				ids, err := sh.AddUsers(arrivals)
				if err == nil && (len(ids) != arrivals.Rows() || ids[0] != users.Rows()) {
					err = fmt.Errorf("assigned ids %v, want [%d,%d)", ids, users.Rows(), users.Rows()+arrivals.Rows())
				}
				users = mat.AppendRows(users, arrivals)
				return err
			})
			if got := sh.MutationStats().Rebuilds - rebuilds; got != shards {
				t.Fatalf("AddUsers rebuilt %d shards, want all %d", got, shards)
			}
		})
		t.Run(fmt.Sprintf("S=%d/failed-rebuild", shards), func(t *testing.T) {
			var builds atomic.Int64
			var failAt int64
			sh := New(Config{Shards: shards, Partitioner: ByNorm(), Factory: func() mips.Solver {
				return &buildFailer{inner: factory(), builds: &builds, failAt: &failAt}
			}})
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			before, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			// Fail the last shard's rebuild, after every earlier shard's
			// replacement has been staged.
			failAt = builds.Load() + int64(shards)
			if _, err := sh.AddUsers(arrivals); err == nil {
				t.Fatal("AddUsers succeeded over a failing rebuild")
			}
			if n := builds.Load(); n != failAt {
				t.Fatalf("staging stopped at build %d, want %d", n, failAt)
			}
			after, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.SameRows(before, after); err != nil {
				t.Fatal(err)
			}
			if got := sh.NumUsers(); got != m.Users.Rows() {
				t.Fatalf("NumUsers = %d after failed AddUsers, want %d", got, m.Users.Rows())
			}
			for si, p := range sh.Plans() {
				if p.Builds != 1 {
					t.Fatalf("shard %d builds = %d after a discarded stage, want 1", si, p.Builds)
				}
			}
			if st := sh.MutationStats(); st.Dirty() != 0 {
				t.Fatalf("failed AddUsers counted %+v", st)
			}
			// The retry lands.
			failAt = 0
			if _, err := sh.AddUsers(arrivals); err != nil {
				t.Fatal(err)
			}
			grown := mat.AppendRows(m.Users, arrivals)
			if err := mips.VerifyMutation(sh, grown, m.Items, k); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAddUsersFailureAtomicity is the error-atomicity regression for the
// broadcast path: a mid-broadcast sub-solver failure — at shard 1, after
// shard 0 already absorbed the arrivals — must leave the composite
// answering queries identically to its pre-call state, with the new user
// ids still invalid; and a subsequent healthy AddUsers must succeed.
func TestAddUsersFailureAtomicity(t *testing.T) {
	m := model(t, "r2-nomad-25", 0.04)
	arrivals := model(t, "r2-nomad-25", 0.02).Users.RowSlice(0, 5)
	const k = 7
	const S = 3
	for _, mode := range []string{"error", "id-contract-violation"} {
		t.Run(mode, func(t *testing.T) {
			calls := 0
			failAt := 2 // shard 0 succeeds, shard 1 fails mid-broadcast
			sh := New(Config{
				Shards:      S,
				Partitioner: ByNorm(),
				Factory: func() mips.Solver {
					return &faultyUserAdder{
						inner:   core.NewBMM(core.BMMConfig{}),
						calls:   &calls,
						failAt:  failAt,
						violate: mode == "id-contract-violation",
					}
				},
			})
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			before, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sh.AddUsers(arrivals); err == nil {
				t.Fatal("sabotaged AddUsers succeeded")
			} else if strings.Contains(err.Error(), "composite corrupt") {
				t.Fatalf("rollback failed: %v", err)
			}
			if calls != failAt {
				t.Fatalf("broadcast reached %d AddUsers calls, want %d (stop at first failure)", calls, failAt)
			}
			// The composite answers exactly as before the call...
			after, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.SameRows(before, after); err != nil {
				t.Fatal(err)
			}
			// ...the user space did not grow...
			if got := sh.NumUsers(); got != m.Users.Rows() {
				t.Fatalf("NumUsers = %d after failed AddUsers, want %d", got, m.Users.Rows())
			}
			if _, err := sh.Query([]int{m.Users.Rows()}, k); err == nil {
				t.Fatal("a partially-added user id answers queries")
			}
			// ...and the rollback is visible where documented: the touched
			// shards' build counters advanced, untouched shards' did not.
			plans := sh.Plans()
			for si, p := range plans {
				want := 1
				if si <= 1 {
					want = 2 // shards 0 and 1 were rebuilt by the rollback
				}
				if p.Builds != want {
					t.Fatalf("shard %d builds = %d, want %d (plans %+v)", si, p.Builds, want, plans)
				}
			}
			// A healthy retry works and matches the unsharded reference.
			failAt = 0
			ids, err := sh.AddUsers(arrivals)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != arrivals.Rows() || ids[0] != m.Users.Rows() {
				t.Fatalf("retry assigned ids %v", ids)
			}
			grown := mat.AppendRows(m.Users, arrivals)
			got, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.VerifyAll(grown, m.Items, got, k); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedMutationUnderServingTypes ensures the composite still
// advertises the optional interfaces after mutation-related refactors (a
// regression guard for interface plumbing).
func TestShardedMutationUnderServingTypes(t *testing.T) {
	var s mips.Solver = New(Config{Factory: func() mips.Solver { return mips.NewNaive() }})
	if _, ok := s.(mips.ItemMutator); !ok {
		t.Fatal("Sharded lost mips.ItemMutator")
	}
	if _, ok := s.(mips.UserAdder); !ok {
		t.Fatal("Sharded lost mips.UserAdder")
	}
	if _, ok := s.(mips.PartialQuerier); !ok {
		t.Fatal("Sharded lost mips.PartialQuerier")
	}
}
