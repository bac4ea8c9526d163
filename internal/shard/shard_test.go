package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"optimus/internal/conetree"
	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
)

func model(t testing.TB, name string, scale float64) *dataset.Model {
	t.Helper()
	cfg, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dataset.Generate(cfg.Scale(scale))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// factories is the sub-solver matrix the identity tests sweep.
func factories() map[string]mips.Factory {
	return map[string]mips.Factory{
		"BMM":      func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
		"MAXIMUS":  func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 3}) },
		"LEMP":     func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
		"ConeTree": func() mips.Solver { return conetree.New(conetree.Config{}) },
		"Naive":    func() mips.Solver { return mips.NewNaive() },
	}
}

// TestShardedMatchesUnshardedExactly is the tentpole invariant: for every
// sub-solver type, partitioner, and shard count, the sharded composite
// returns Naive's entries (same items, same order, == scores), which every
// unsharded solver also returns.
func TestShardedMatchesUnshardedExactly(t *testing.T) {
	models := []string{"netflix-nomad-25", "r2-nomad-25"}
	partitioners := []Partitioner{Contiguous(), ByNorm()}
	const k = 7
	for _, mname := range models {
		m := model(t, mname, 0.04)
		for sub, factory := range factories() {
			for _, part := range partitioners {
				for _, shards := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("%s/%s/%s/S=%d", mname, sub, part.Name(), shards)
					t.Run(name, func(t *testing.T) {
						sh := New(Config{Shards: shards, Partitioner: part, Factory: factory})
						if err := sh.Build(m.Users, m.Items); err != nil {
							t.Fatal(err)
						}
						got, err := sh.QueryAll(k)
						if err != nil {
							t.Fatal(err)
						}
						if err := mips.VerifyAll(m.Users, m.Items, got, k); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestShardedKLargerThanShard covers k greater than every per-shard item
// count: shards answer what they hold, the merge still yields the exact
// global top-k.
func TestShardedKLargerThanShard(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02) // 96 users, 35 items at this scale
	nItems := m.Items.Rows()
	k := nItems - 2
	sh := New(Config{
		Shards:      8, // ~4 items per shard, far below k
		Partitioner: ByNorm(),
		Factory:     func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
	})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	got, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users, m.Items, got, k); err != nil {
		t.Fatal(err)
	}
}

// TestShardedQuerySubset checks arbitrary id lists (order preserved,
// duplicates allowed) and out-of-range rejection.
func TestShardedQuerySubset(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02)
	sh := New(Config{Shards: 3, Factory: func() mips.Solver { return core.NewBMM(core.BMMConfig{}) }})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	ids := []int{5, 0, 5, m.Users.Rows() - 1}
	res, err := sh.Query(ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users.SelectRows(ids), m.Items, res, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Query([]int{-1}, 3); err == nil {
		t.Fatal("negative user id must fail")
	}
	if _, err := sh.Query([]int{m.Users.Rows()}, 3); err == nil {
		t.Fatal("out-of-range user id must fail")
	}
	if _, err := sh.Query([]int{0}, m.Items.Rows()+1); err == nil {
		t.Fatal("k > items must fail")
	}
}

// TestShardedLifecycleAndConfig pins the contract edges: query before
// build, missing factory, shard count clamping, the Sized/ThreadSetter
// interfaces, and the Batches probe.
func TestShardedLifecycleAndConfig(t *testing.T) {
	sh := New(Config{Factory: func() mips.Solver { return core.NewBMM(core.BMMConfig{}) }})
	if _, err := sh.Query([]int{0}, 1); err == nil {
		t.Fatal("Query before Build must fail")
	}
	if _, err := sh.QueryAll(1); err == nil {
		t.Fatal("QueryAll before Build must fail")
	}
	if !sh.Batches() {
		t.Fatal("Sharded(BMM) must report Batches before Build")
	}
	planned := New(Config{Planner: NewOptimusPlanner(core.OptimusConfig{}, 1)})
	if !planned.Batches() {
		t.Fatal("unbuilt planner-configured Sharded must report Batches (its BMM arm batches)")
	}
	lempSh := New(Config{Factory: func() mips.Solver { return lemp.New(lemp.Config{}) }})
	if !lempSh.Batches() {
		t.Fatal("Sharded(LEMP) must report Batches before Build (its head multiply batches)")
	}
	pointSh := New(Config{Factory: func() mips.Solver { return mips.NewNaive() }})
	if pointSh.Batches() {
		t.Fatal("Sharded(Naive) must not report Batches before Build")
	}
	if sh.NumUsers() != 0 || sh.NumItems() != 0 {
		t.Fatal("unbuilt Sharded must report zero sizes")
	}

	m := model(t, "netflix-nomad-10", 0.02)
	if err := New(Config{}).Build(m.Users, m.Items); err == nil {
		t.Fatal("Build without Factory or Planner must fail")
	}

	// More shards than items: clamped, still exact.
	sh = New(Config{
		Shards:  10 * m.Items.Rows(),
		Factory: func() mips.Solver { return mips.NewNaive() },
	})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if got := len(sh.Plans()); got > m.Items.Rows() {
		t.Fatalf("%d shards for %d items", got, m.Items.Rows())
	}
	res, err := sh.QueryAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users, m.Items, res, 1); err != nil {
		t.Fatal(err)
	}
	if sh.NumUsers() != m.Users.Rows() || sh.NumItems() != m.Items.Rows() {
		t.Fatalf("Sized = (%d,%d), want (%d,%d)",
			sh.NumUsers(), sh.NumItems(), m.Users.Rows(), m.Items.Rows())
	}
	var _ mips.ThreadSetter = sh
	sh.SetThreads(2) // must not panic, must forward
}

// recordingSolver records the last SetThreads value it was handed.
type recordingSolver struct {
	mips.Solver
	threads int
}

func (r *recordingSolver) SetThreads(n int) { r.threads = n }

// TestShardedForwardsThreads pins the Config.Threads contract: the
// composite's thread setting reaches every sub-solver at Build, and
// SetThreads after Build re-forwards.
func TestShardedForwardsThreads(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02)
	var mu sync.Mutex
	var made []*recordingSolver
	sh := New(Config{
		Shards:  3,
		Threads: 2,
		Factory: func() mips.Solver {
			r := &recordingSolver{Solver: mips.NewNaive()}
			mu.Lock()
			made = append(made, r)
			mu.Unlock()
			return r
		},
	})
	made = nil // drop New's one-off name/batches probe instance
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if len(made) != 3 {
		t.Fatalf("factory built %d solvers at Build, want 3", len(made))
	}
	for i, r := range made {
		if r.threads != 2 {
			t.Fatalf("sub-solver %d got threads %d at Build, want 2", i, r.threads)
		}
	}
	sh.SetThreads(4)
	for i, r := range made {
		if r.threads != 4 {
			t.Fatalf("sub-solver %d got threads %d after SetThreads, want 4", i, r.threads)
		}
	}
}

// TestPartitioners checks both built-in partitioners produce valid
// partitions with the documented shapes.
func TestPartitioners(t *testing.T) {
	m := model(t, "r2-nomad-10", 0.02)
	n := m.Items.Rows()
	for _, part := range []Partitioner{Contiguous(), ByNorm()} {
		for _, shards := range []int{1, 2, 5, n, n + 3} {
			want := shards
			if want > n {
				want = n
			}
			parts := part.Partition(m.Items, shards)
			nonEmpty := make([][]int, 0, len(parts))
			for _, ids := range parts {
				if len(ids) > 0 {
					nonEmpty = append(nonEmpty, ids)
				}
			}
			if len(nonEmpty) != want {
				t.Fatalf("%s/S=%d: %d non-empty groups, want %d", part.Name(), shards, len(nonEmpty), want)
			}
			if err := validatePartition(nonEmpty, n); err != nil {
				t.Fatalf("%s/S=%d: %v", part.Name(), shards, err)
			}
		}
	}
	// ByNorm must order shards head-to-tail: the smallest norm of shard s
	// is >= the largest norm of shard s+1 (up to sort stability on ties).
	norms := m.Items.RowNorms()
	parts := ByNorm().Partition(m.Items, 4)
	for s := 0; s+1 < len(parts); s++ {
		minHead := math.Inf(1)
		for _, id := range parts[s] {
			minHead = math.Min(minHead, norms[id])
		}
		for _, id := range parts[s+1] {
			if norms[id] > minHead {
				t.Fatalf("shard %d item %d norm %v exceeds shard %d floor %v",
					s+1, id, norms[id], s, minHead)
			}
		}
	}
}

// planningCorpus builds the heterogeneous corpus the per-shard planner is
// for: tightly clustered users; the first half of the items in the
// index-friendly regime (heavy norm skew, taste-aligned — the KDD rows the
// paper's Fig 5 hands to the index), the second half unprunable (flat
// norms, isotropic — the rows BMM wins).
func planningCorpus(t testing.TB, seed int64) (*mat.Matrix, *mat.Matrix) {
	t.Helper()
	head, err := dataset.Generate(dataset.Config{
		Name: "head-skewed", Users: 1200, Items: 1100, Factors: 25,
		TrueClusters: 10, UserSpread: 0.15, NormSigma: 1.10, ItemAlign: 0.5,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := dataset.Generate(dataset.Config{
		Name: "tail-flat", Users: 2, Items: 1100, Factors: 25,
		TrueClusters: 4, UserSpread: 2.0, NormSigma: 0.01, ItemAlign: 0,
		Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	items := mat.New(head.Items.Rows()+tail.Items.Rows(), head.Items.Cols())
	copy(items.Data(), head.Items.Data())
	copy(items.Data()[head.Items.Rows()*head.Items.Cols():], tail.Items.Data())
	return head.Users, items
}

// TestPerShardPlanningPicksDifferentWinners is the finer-grained §IV
// decision: on a corpus whose item head is index-regime and whose tail is
// BMM-regime, per-shard OPTIMUS planning must assign MAXIMUS to the head
// shard and BMM to the tail shard — and the merged results stay exact
// either way. The decision is a wall-clock measurement, so (as in the
// repository's other winner assertions) a wrong winner is re-measured a
// few times before the test fails; exactness is asserted on every attempt.
// Each attempt starts from a collected heap, as testing.B's runs do: the
// samples take well under a millisecond, and a collection landing inside
// one doubles it, at the same point of every attempt alike.
// Under the race detector only exactness is asserted: it slows MAXIMUS's Go
// walk but not BMM's assembly kernel, so BMM wins both shards there.
func TestPerShardPlanningPicksDifferentWinners(t *testing.T) {
	if testing.Short() {
		t.Skip("planning decision test is not short")
	}
	users, items := planningCorpus(t, 11)
	const k = 5
	const attempts = 3
	for attempt := 1; ; attempt++ {
		runtime.GC()
		sh := New(Config{
			Shards:      2,
			Partitioner: Contiguous(),
			Planner: NewOptimusPlanner(core.OptimusConfig{
				SampleFraction: 0.05, L2CacheBytes: 8 << 10, Seed: 7,
			}, k, func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 7}) }),
		})
		if err := sh.Build(users, items); err != nil {
			t.Fatal(err)
		}
		res, err := sh.QueryAll(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := mips.VerifyAll(users, items, res, k); err != nil {
			t.Fatal(err)
		}
		plans := sh.Plans()
		if len(plans) != 2 {
			t.Fatalf("got %d shards, want 2", len(plans))
		}
		if raceEnabled || plans[0].Solver == "MAXIMUS" && plans[1].Solver == "BMM" {
			return
		}
		if attempt == attempts {
			t.Fatalf("plans %v, want [MAXIMUS BMM] within %d attempts", plans, attempts)
		}
		t.Logf("attempt %d: plans %v, want [MAXIMUS BMM]; re-measuring", attempt, plans)
	}
}

// TestPlannedShardedStaysExact decouples exactness from the timing-based
// winner assertion: whatever the planner decides, results verify.
func TestPlannedShardedStaysExact(t *testing.T) {
	m := model(t, "glove-50", 0.02)
	sh := New(Config{
		Shards:      3,
		Partitioner: ByNorm(),
		Planner: NewOptimusPlanner(core.OptimusConfig{
			SampleFraction: 0.1, L2CacheBytes: 1 << 10, Seed: 2,
		}, 4, func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 2}) }),
	})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	res, err := sh.QueryAll(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users, m.Items, res, 4); err != nil {
		t.Fatal(err)
	}
	for _, p := range sh.Plans() {
		if p.Solver == "" || p.Items <= 0 {
			t.Fatalf("degenerate plan %+v", p)
		}
	}
}

// TestValidatePartition exercises the partition validator directly.
func TestValidatePartition(t *testing.T) {
	cases := []struct {
		parts [][]int
		n     int
		ok    bool
	}{
		{[][]int{{0, 1}, {2, 3}}, 4, true},
		{[][]int{{2, 3}, {0, 1}}, 4, true},   // order of groups is free
		{[][]int{{1, 0}, {3, 2}}, 4, true},   // unsorted groups get sorted
		{[][]int{{0, 1}, {1, 2}}, 3, false},  // duplicate
		{[][]int{{0, 1}}, 3, false},          // missing id
		{[][]int{{0, 1}, {2, 4}}, 4, false},  // out of range
		{[][]int{{-1, 0}, {1, 2}}, 3, false}, // negative
	}
	for i, tc := range cases {
		err := validatePartition(tc.parts, tc.n)
		if (err == nil) != tc.ok {
			t.Fatalf("case %d: err=%v, want ok=%v", i, err, tc.ok)
		}
	}
}

// Static conformance: the composite and the four pruning sub-solvers take
// floors through mips.Solver.QueryCtx and meter the scans floors save.
var (
	_ mips.Solver      = (*Sharded)(nil)
	_ mips.ScanCounter = (*Sharded)(nil)
	_ mips.Solver      = (*core.BMM)(nil)
	_ mips.Solver      = (*core.Maximus)(nil)
	_ mips.Solver      = (*lemp.Index)(nil)
	_ mips.Solver      = (*conetree.Index)(nil)
	_ mips.ScanCounter = (*core.BMM)(nil)
	_ mips.ScanCounter = (*core.Maximus)(nil)
	_ mips.ScanCounter = (*lemp.Index)(nil)
	_ mips.ScanCounter = (*conetree.Index)(nil)
)

// TestTwoWaveMatchesSingleWave is the threshold-propagation invariant: for
// every sub-solver and shard count, the two-wave floor-seeded query over the
// by-norm partition returns entry-for-entry identical results to the blind
// single-wave fan-out (and both match the exactness oracle). Floors must
// never scan *more* than the blind path.
func TestTwoWaveMatchesSingleWave(t *testing.T) {
	models := []string{"netflix-nomad-25", "r2-nomad-25"}
	const k = 7
	for _, mname := range models {
		m := model(t, mname, 0.04)
		for sub, factory := range factories() {
			for _, shards := range []int{2, 3, 8} {
				name := fmt.Sprintf("%s/%s/S=%d", mname, sub, shards)
				t.Run(name, func(t *testing.T) {
					blind := New(Config{
						Shards: shards, Partitioner: ByNorm(),
						Factory: factory, Schedule: SingleWave,
					})
					if err := blind.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
					if blind.ActiveSchedule() == TwoWave {
						t.Fatal("Schedule: SingleWave must force single-wave")
					}
					want, err := blind.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					blindTail := tailScanned(blind)

					seeded := New(Config{Shards: shards, Partitioner: ByNorm(), Factory: factory})
					if err := seeded.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
					if seeded.ActiveSchedule() != TwoWave {
						t.Fatalf("by-norm Sharded(%s) must enable the two-wave path", sub)
					}
					got, err := seeded.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					if err := mips.VerifyAll(m.Users, m.Items, got, k); err != nil {
						t.Fatal(err)
					}
					if err := mips.SameRows(want, got); err != nil {
						t.Fatal(err)
					}
					if seededTail := tailScanned(seeded); seededTail > blindTail {
						t.Fatalf("floors scanned %d tail candidates, blind %d — seeding must never add work",
							seededTail, blindTail)
					}
				})
			}
		}
	}
}

// tailScanned sums the scan counters of every shard but the head.
func tailScanned(s *Sharded) int64 {
	var total int64
	for si, st := range s.ShardScanStats() {
		if si > 0 {
			total += st.Scanned
		}
	}
	return total
}

// TestTwoWavePrunesTailScans pins the win on the corpus the partition is
// designed for: a norm-skewed head and a flat tail. Scan counts are
// deterministic (data-dependent only), so the strict reduction is a stable
// assertion, unlike wall-clock.
func TestTwoWavePrunesTailScans(t *testing.T) {
	users, items := planningCorpus(t, 5)
	const k = 10
	for _, sub := range []string{"LEMP", "MAXIMUS"} {
		factory := factories()[sub]
		t.Run(sub, func(t *testing.T) {
			blind := New(Config{
				Shards: 4, Partitioner: ByNorm(),
				Factory: factory, Schedule: SingleWave,
			})
			if err := blind.Build(users, items); err != nil {
				t.Fatal(err)
			}
			want, err := blind.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			blindTail := tailScanned(blind)

			seeded := New(Config{Shards: 4, Partitioner: ByNorm(), Factory: factory})
			if err := seeded.Build(users, items); err != nil {
				t.Fatal(err)
			}
			got, err := seeded.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.SameRows(want, got); err != nil {
				t.Fatal(err)
			}
			seededTail := tailScanned(seeded)
			if seededTail >= blindTail {
				t.Fatalf("seeded tail scans %d, blind %d — floors must prune on a norm-skewed corpus",
					seededTail, blindTail)
			}
			t.Logf("%s: tail scans blind=%d seeded=%d (%.1f%% pruned)",
				sub, blindTail, seededTail, 100*(1-float64(seededTail)/float64(blindTail)))
		})
	}
}

// TestTwoWaveFallbacks pins when threshold propagation must NOT engage:
// single shard, non-head-first partitions, and the explicit SingleWave
// lesion — all staying exact on the single-wave path. A Naive sub-solver is
// no fallback: its QueryCtx honors floors, so it takes the two-wave path.
func TestTwoWaveFallbacks(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02)
	const k = 3
	bmm := func() mips.Solver { return core.NewBMM(core.BMMConfig{}) }
	cases := []struct {
		name    string
		cfg     Config
		twoWave bool
	}{
		{"S=1", Config{Shards: 1, Partitioner: ByNorm(), Factory: bmm}, false},
		{"contiguous", Config{Shards: 3, Factory: bmm}, false},
		{"naive-sub-solver", Config{Shards: 3, Partitioner: ByNorm(),
			Factory: func() mips.Solver { return mips.NewNaive() }}, true},
		{"disabled", Config{Shards: 3, Partitioner: ByNorm(), Schedule: SingleWave, Factory: bmm}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := New(tc.cfg)
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			if got := sh.ActiveSchedule() == TwoWave; got != tc.twoWave {
				t.Fatalf("two-wave = %v, want %v", got, tc.twoWave)
			}
			res, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.VerifyAll(m.Users, m.Items, res, k); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedFloors covers the composite's own floor path: caller
// floors passed to QueryCtx must compose with the internal two-wave harvest (by-norm)
// and forward on the single-wave path (contiguous), honoring the floor
// contract against the unseeded composite.
func TestShardedFloors(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 5
	for _, part := range []Partitioner{Contiguous(), ByNorm()} {
		t.Run(part.Name(), func(t *testing.T) {
			sh := New(Config{
				Shards: 3, Partitioner: part,
				Factory: func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
			})
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			ids := mips.AllUserIDs(m.Users.Rows())
			want, err := sh.Query(ids, k)
			if err != nil {
				t.Fatal(err)
			}
			floors := make([]float64, len(ids))
			for i := range floors {
				switch i % 3 {
				case 0:
					floors[i] = math.Inf(-1)
				case 1:
					floors[i] = want[i][k-1].Score // tie at the global k-th
				default:
					floors[i] = want[i][0].Score
				}
			}
			got, err := sh.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.VerifyFloorPrefix(want, got, floors); err != nil {
				t.Fatal(err)
			}
			if _, err := sh.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors[:1]}); err == nil {
				t.Fatal("floor/user length mismatch must fail")
			}
		})
	}
}

// TestPlannerAmortizesAcrossShards pins the cost-amortization contract:
// consecutive Plan calls share one user sample and BMM baseline rate (the
// first call fills the cache, later calls consume it), and SetThreads —
// which invalidates the rate's measurement conditions — flushes it.
func TestPlannerAmortizesAcrossShards(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.04)
	p := NewOptimusPlanner(core.OptimusConfig{
		SampleFraction: 0.2, L2CacheBytes: 1 << 10, Seed: 5,
	}, 3, func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 5}) })

	if _, _, err := p.Plan(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if p.shared.BMMSecondsPerUserItem <= 0 || len(p.shared.SampleIDs) == 0 {
		t.Fatalf("first Plan must fill the shared cache: %+v", p.shared)
	}
	rate := p.shared.BMMSecondsPerUserItem
	ids := append([]int(nil), p.shared.SampleIDs...)

	// Second shard (different item subset): the cache must survive intact —
	// the rate is reused, not remeasured.
	sub := m.Items.RowSlice(0, m.Items.Rows()/2)
	solver, name, err := p.Plan(m.Users, sub)
	if err != nil {
		t.Fatal(err)
	}
	if solver == nil || name == "" {
		t.Fatal("degenerate plan")
	}
	if p.shared.BMMSecondsPerUserItem != rate {
		t.Fatalf("rate remeasured across shards: %v -> %v", rate, p.shared.BMMSecondsPerUserItem)
	}
	for i, id := range p.shared.SampleIDs {
		if id != ids[i] {
			t.Fatal("sample redrawn across shards")
		}
	}
	res, err := solver.QueryAll(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users, sub, res, 2); err != nil {
		t.Fatal(err)
	}

	p.SetThreads(2)
	if p.shared.BMMSecondsPerUserItem != 0 || p.shared.SampleIDs != nil {
		t.Fatalf("SetThreads must flush the cache: %+v", p.shared)
	}
}
