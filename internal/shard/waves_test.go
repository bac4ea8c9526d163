package shard

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/topk"
)

func TestScheduleNames(t *testing.T) {
	for sc := AutoSchedule; sc < scheduleCount; sc++ {
		got, err := ParseSchedule(sc.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", sc.String(), err)
		}
		if got != sc {
			t.Fatalf("round-trip %v -> %q -> %v", sc, sc.String(), got)
		}
	}
	for _, name := range []string{"bogus", "cascade", "pipelined"} {
		if _, err := ParseSchedule(name); err == nil {
			t.Fatalf("ParseSchedule(%q) must fail", name)
		}
	}
	if s := Schedule(99).String(); s != "Schedule(99)" {
		t.Fatalf("invalid String = %q", s)
	}
	if Schedule(99).valid() || Schedule(-1).valid() {
		t.Fatal("out-of-range schedules must be invalid")
	}
}

// TestScheduleResolution pins how requested schedules resolve against
// eligibility: TwoWave falls back to SingleWave whenever floor propagation
// is unavailable (and only then — a Naive tail is eligible, its QueryCtx
// honors floors), AutoSchedule resolves to TwoWave when available, an
// explicit SingleWave is always honored, every resolution answers exactly,
// and re-scheduling a built composite re-resolves.
func TestScheduleResolution(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02)
	lempF := factories()["LEMP"]
	naiveF := factories()["Naive"]
	cases := []struct {
		name string
		cfg  Config
		want Schedule
	}{
		{"auto-eligible", Config{Shards: 3, Partitioner: ByNorm(), Factory: lempF}, TwoWave},
		{"auto-contiguous", Config{Shards: 3, Factory: lempF}, SingleWave},
		{"two-wave-explicit", Config{Shards: 3, Partitioner: ByNorm(), Factory: lempF, Schedule: TwoWave}, TwoWave},
		{"single-explicit", Config{Shards: 3, Partitioner: ByNorm(), Factory: lempF, Schedule: SingleWave}, SingleWave},
		{"two-wave-contiguous", Config{Shards: 3, Factory: lempF, Schedule: TwoWave}, SingleWave},
		{"two-wave-naive-tail", Config{Shards: 3, Partitioner: ByNorm(), Factory: naiveF, Schedule: TwoWave}, TwoWave},
		{"two-wave-S1", Config{Shards: 1, Partitioner: ByNorm(), Factory: lempF, Schedule: TwoWave}, SingleWave},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := New(tc.cfg)
			if err := sh.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			if sh.ActiveSchedule() != tc.want {
				t.Fatalf("active = %v, want %v", sh.ActiveSchedule(), tc.want)
			}
			if sh.RequestedSchedule() != tc.cfg.Schedule {
				t.Fatalf("requested = %v, want %v", sh.RequestedSchedule(), tc.cfg.Schedule)
			}
			if sh.ActiveScheduleName() != tc.want.String() {
				t.Fatalf("name = %q, want %q", sh.ActiveScheduleName(), tc.want.String())
			}
			res, err := sh.QueryAll(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.VerifyAll(m.Users, m.Items, res, 3); err != nil {
				t.Fatal(err)
			}
		})
	}

	if err := New(Config{Shards: 2, Factory: lempF, Schedule: Schedule(42)}).Build(m.Users, m.Items); err == nil {
		t.Fatal("invalid Config.Schedule must fail Build")
	}

	// Re-scheduling a built composite re-resolves immediately.
	sh := New(Config{Shards: 3, Partitioner: ByNorm(), Factory: lempF})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if sh.ActiveSchedule() != TwoWave {
		t.Fatalf("auto resolved to %v, want TwoWave", sh.ActiveSchedule())
	}
	if err := sh.SetScheduleByName("single"); err != nil {
		t.Fatal(err)
	}
	if sh.ActiveSchedule() != SingleWave {
		t.Fatalf("after SetScheduleByName: %v, want SingleWave", sh.ActiveSchedule())
	}
	if err := sh.SetScheduleByName("warp"); err == nil {
		t.Fatal("bad schedule name must fail")
	}
	if err := sh.SetSchedule(Schedule(-3)); err == nil {
		t.Fatal("invalid schedule value must fail")
	}
}

// TestSchedulesMatchSingleWave is the wave-scheduling equivalence matrix:
// for every floor-capable sub-solver, shard count and schedule, the query
// over the by-norm partition returns entry-for-entry identical results to
// the blind single-wave fan-out, and the composite's own floored query
// honors the floor contract (VerifyFloorPrefix) under the same schedule.
// Schedules may only change work, never answers.
func TestSchedulesMatchSingleWave(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	ids := mips.AllUserIDs(m.Users.Rows())
	for _, sub := range []string{"BMM", "LEMP", "MAXIMUS", "ConeTree"} {
		factory := factories()[sub]
		for _, shards := range []int{2, 4, 8} {
			blind := New(Config{
				Shards: shards, Partitioner: ByNorm(),
				Factory: factory, Schedule: SingleWave,
			})
			if err := blind.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			want, err := blind.QueryAll(k)
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
			for _, sched := range []Schedule{SingleWave, TwoWave} {
				t.Run(fmt.Sprintf("%s/S=%d/%s", sub, shards, sched), func(t *testing.T) {
					sh := New(Config{
						Shards: shards, Partitioner: ByNorm(),
						Factory: factory, Schedule: sched,
					})
					if err := sh.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
					if sh.ActiveSchedule() != sched {
						t.Fatalf("active = %v, want %v", sh.ActiveSchedule(), sched)
					}
					got, err := sh.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					if err := mips.VerifyAll(m.Users, m.Items, got, k); err != nil {
						t.Fatal(err)
					}
					floored, err := sh.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
					if err != nil {
						t.Fatal(err)
					}
					if err := mips.VerifyFloorPrefix(want, floored, floors); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// stubSolver answers canned, shard-locally-ordered rows without allocating
// after its first call of a given shape — isolating the composite
// orchestration layer for the allocation regression test. Its QueryCtx
// ignores floors (a superset answer is always valid).
type stubSolver struct {
	items int
	rows  [][]topk.Entry
	flat  []topk.Entry
}

func (s *stubSolver) Name() string                         { return "stub" }
func (s *stubSolver) Batches() bool                        { return false }
func (s *stubSolver) Build(users, items *mat.Matrix) error { s.items = items.Rows(); return nil }

func (s *stubSolver) Query(userIDs []int, k int) ([][]topk.Entry, error) {
	if k > s.items {
		k = s.items
	}
	if len(s.rows) < len(userIDs) || len(s.rows) > 0 && cap(s.rows[0]) < k {
		s.rows = make([][]topk.Entry, len(userIDs))
		s.flat = make([]topk.Entry, len(userIDs)*k)
		for i := range s.rows {
			s.rows[i] = s.flat[i*k : i*k : (i+1)*k]
		}
	}
	rows := s.rows[:len(userIDs)]
	for i, u := range userIDs {
		row := rows[i][:k]
		for j := 0; j < k; j++ {
			// Descending scores, deterministic per (user, local item).
			row[j] = topk.Entry{Item: j, Score: float64(100-j) + 0.001*float64(u%7)}
		}
		rows[i] = row
	}
	return rows, nil
}

func (s *stubSolver) QueryAll(k int) ([][]topk.Entry, error) {
	return nil, fmt.Errorf("stub: QueryAll unused")
}

func (s *stubSolver) QueryCtx(_ context.Context, userIDs []int, k int, _ mips.QueryOptions) ([][]topk.Entry, error) {
	return s.Query(userIDs, k)
}

// TestQueryAllocations pins the zero-allocation fan-out hot path: with the
// per-composite scratch and merge pools warm and sub-solver allocations
// stubbed out, a steady-state Query allocates only its output — the result
// slice plus one merged row per user — with a small constant of slack for
// the fan-out closures. Threads:1 keeps the parallel loops inline so
// goroutine spawns don't muddy the count.
func TestQueryAllocations(t *testing.T) {
	users := mat.New(64, 4)
	items := mat.New(40, 4)
	for i := 0; i < items.Rows(); i++ {
		items.Row(i)[0] = float64(items.Rows() - i) // distinct norms for ByNorm
	}
	const k = 5
	ids := mips.AllUserIDs(users.Rows())
	for _, sched := range []Schedule{SingleWave, TwoWave} {
		t.Run(sched.String(), func(t *testing.T) {
			sh := New(Config{
				Shards: 4, Partitioner: ByNorm(), Threads: 1, Schedule: sched,
				Factory: func() mips.Solver { return &stubSolver{} },
			})
			if err := sh.Build(users, items); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := sh.Query(ids, k); err != nil {
					t.Fatal(err)
				}
			})
			// Output: 1 result slice + len(ids) merged rows; slack for the
			// parallel-loop closures and interface boxing.
			budget := float64(1+len(ids)) + 6
			if allocs > budget {
				t.Fatalf("%v allocs/query, budget %v — the fan-out scratch must stay pooled", allocs, budget)
			}
			t.Logf("%s: %v allocs/query (budget %v)", sched, allocs, budget)
		})
	}
}

// TestWaveScanStatsGrouping pins the per-wave stats contract: [head, Σtails]
// under TwoWave, a single total under SingleWave — both summing to the same
// per-shard counters.
func TestWaveScanStatsGrouping(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.02)
	const k = 3
	sh := New(Config{Shards: 3, Partitioner: ByNorm(), Factory: factories()["LEMP"]})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	sum := func(sts []mips.ScanStats) int64 {
		var n int64
		for _, st := range sts {
			n += st.Scanned
		}
		return n
	}
	for sched, wantWaves := range map[Schedule]int{
		SingleWave: 1, TwoWave: 2,
	} {
		if err := sh.SetSchedule(sched); err != nil {
			t.Fatal(err)
		}
		sh.ResetScanStats()
		if _, err := sh.QueryAll(k); err != nil {
			t.Fatal(err)
		}
		waves := sh.WaveScanStats()
		if len(waves) != wantWaves {
			t.Fatalf("%v: %d wave groups, want %d", sched, len(waves), wantWaves)
		}
		if got, want := sum(waves), sum(sh.ShardScanStats()); got != want {
			t.Fatalf("%v: wave sum %d != shard sum %d", sched, got, want)
		}
		if sum(waves) <= 0 {
			t.Fatalf("%v: no scans metered", sched)
		}
	}
}

// TestScheduleRoundTrip pins schedule persistence: a non-default requested
// schedule survives Save/Load and Save/LoadAny (via the additive trailing
// section), the default writes no section at all (golden byte-stability),
// and the loaded composite answers identically.
func TestScheduleRoundTrip(t *testing.T) {
	m := model(t, "netflix-nomad-10", 0.04)
	const k = 3
	mk := func(sched Schedule) *Sharded {
		return New(Config{
			Shards: 3, Partitioner: ByNorm(), Schedule: sched,
			Factory: factories()["LEMP"],
		})
	}
	for _, sched := range []Schedule{AutoSchedule, SingleWave, TwoWave} {
		t.Run(sched.String(), func(t *testing.T) {
			src := mk(sched)
			if err := src.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			want, err := src.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatal(err)
			}
			dst := mk(AutoSchedule)
			if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if dst.RequestedSchedule() != sched {
				t.Fatalf("loaded requested schedule %v, want %v", dst.RequestedSchedule(), sched)
			}
			if dst.ActiveSchedule() != src.ActiveSchedule() {
				t.Fatalf("loaded active schedule %v, want %v", dst.ActiveSchedule(), src.ActiveSchedule())
			}
			// The self-describing path restores it too: a SingleWave lesion
			// saved here must not come back two-wave.
			ls, err := persist.LoadAny(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got := ls.(*Sharded).ActiveSchedule(); got != src.ActiveSchedule() {
				t.Fatalf("LoadAny active schedule %v, want %v", got, src.ActiveSchedule())
			}
			got, err := dst.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.SameRows(want, got); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Additive evolution: the default-config snapshot must be byte-identical
	// whether or not the writer knows about schedules — i.e. carry no
	// schedule section — so v1 goldens stay stable (see TestGoldenSnapshots).
	auto := mk(AutoSchedule)
	if err := auto.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := auto.Save(&a); err != nil {
		t.Fatal(err)
	}
	single := mk(SingleWave)
	if err := single.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if err := single.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()[:a.Len()]) {
		t.Fatal("schedule section must extend the stream, not reshape it")
	}
	if b.Len() <= a.Len() {
		t.Fatal("non-default schedule must append a trailing section")
	}
}
