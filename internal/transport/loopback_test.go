package transport_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"optimus/internal/core"
	"optimus/internal/dataset"
	"optimus/internal/faulty"
	"optimus/internal/lemp"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/shard"
	"optimus/internal/topk"
	"optimus/internal/transport"
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

// factories is the sub-solver matrix the equivalence cells sweep — the three
// served solvers, so every wave schedule stays eligible over the wire (a
// dialed worker boots from a snapshot, which a baseline does not write).
func factories() map[string]mips.Factory {
	return map[string]mips.Factory{
		"BMM":     func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
		"MAXIMUS": func() mips.Solver { return core.NewMaximus(core.MaximusConfig{Seed: 3}) },
		"LEMP":    func() mips.Solver { return lemp.New(lemp.Config{Seed: 3}) },
	}
}

// scoreTol matches the sharded identity tests: sub-matrix placement can move
// the last ulp of a score without affecting membership or order.
const scoreTol = 1e-10

func assertSameEntries(t *testing.T, u int, want, got []topk.Entry) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("user %d: %d entries, want %d", u, len(got), len(want))
	}
	for r := range want {
		if want[r].Item != got[r].Item {
			t.Fatalf("user %d rank %d: item %d, want %d (loopback %v, direct %v)",
				u, r, got[r].Item, want[r].Item, got, want)
		}
	}
	if !topk.Equal(want, got, scoreTol) {
		t.Fatalf("user %d: scores diverge beyond %v: loopback %v, direct %v", u, scoreTol, got, want)
	}
}

// statsSince is the traffic metered between two loopback readings.
func statsSince(before, after transport.Stats) transport.Stats {
	return transport.Stats{
		Dials:         after.Dials - before.Dials,
		Calls:         after.Calls - before.Calls,
		BytesSent:     after.BytesSent - before.BytesSent,
		BytesReceived: after.BytesReceived - before.BytesReceived,
	}
}

// TestLoopbackEquivalenceMatrix is the acceptance gate for the wire path:
// for every floor-capable sub-solver, wave schedule, and shard count, a
// Sharded whose workers live behind the loopback transport answers
// entry-for-entry identically to a direct in-process Sharded — including the
// composite floor contract (VerifyFloorPrefix) and post-mutation answers
// (VerifyMutation) — with the wire demonstrably in the path.
func TestLoopbackEquivalenceMatrix(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	ids := mips.AllUserIDs(m.Users.Rows())
	schedules := []shard.Schedule{shard.SingleWave, shard.TwoWave, shard.Cascade, shard.Pipelined}
	for sub, factory := range factories() {
		for _, schedule := range schedules {
			for _, shards := range []int{2, 4} {
				name := fmt.Sprintf("%s/%s/S=%d", sub, schedule, shards)
				t.Run(name, func(t *testing.T) {
					cfg := shard.Config{
						Shards:      shards,
						Partitioner: shard.ByNorm(),
						Schedule:    schedule,
						Factory:     factory,
					}
					direct := shard.New(cfg)
					if err := direct.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
					lb := transport.NewLoopback()
					cfg.WorkerDialer = lb.Dialer()
					wired := shard.New(cfg)
					if err := wired.Build(m.Users, m.Items); err != nil {
						t.Fatal(err)
					}
					if got := wired.ActiveSchedule(); got != schedule {
						t.Fatalf("loopback active schedule %v, want %v", got, schedule)
					}
					if st := lb.Stats(); st.Dials != int64(shards) {
						t.Fatalf("loopback dials = %d, want %d", st.Dials, shards)
					}

					want, err := direct.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					before := lb.Stats()
					got, err := wired.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					pass := statsSince(before, lb.Stats())
					if pass.Calls == 0 || pass.BytesSent == 0 || pass.BytesReceived == 0 {
						t.Fatalf("loopback query metered %+v — the wire is not in the path", pass)
					}
					// The traffic of a pass (transport.bytes_per_user) is
					// deterministic on every schedule whose floors do not
					// race shard completion.
					if schedule != shard.Pipelined {
						before = lb.Stats()
						if _, err := wired.QueryAll(k); err != nil {
							t.Fatal(err)
						}
						if again := statsSince(before, lb.Stats()); again != pass {
							t.Fatalf("a repeated pass metered %+v, the first %+v", again, pass)
						}
					}
					if err := mips.VerifyAll(m.Users, m.Items, got, k, 1e-9); err != nil {
						t.Fatal(err)
					}
					for u := range want {
						assertSameEntries(t, u, want[u], got[u])
					}

					// Composite floor contract over the wire: seeded results
					// must be the floor prefix of the unseeded ones.
					floors := make([]float64, len(ids))
					for i := range floors {
						switch i % 3 {
						case 0:
							floors[i] = math.Inf(-1)
						case 1:
							floors[i] = got[i][k-1].Score
						default:
							floors[i] = got[i][0].Score
						}
					}
					seeded, err := wired.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
					if err != nil {
						t.Fatal(err)
					}
					if err := mips.VerifyFloorPrefix(got, seeded, floors); err != nil {
						t.Fatal(err)
					}

					// Post-mutation equivalence: the same add+remove through
					// both paths, checked against the oracle and each other.
					add := m.Items.RowSlice(0, 3)
					wantIDs, err := direct.AddItems(add)
					if err != nil {
						t.Fatal(err)
					}
					gotIDs, err := wired.AddItems(add)
					if err != nil {
						t.Fatal(err)
					}
					if len(wantIDs) != len(gotIDs) {
						t.Fatalf("assigned ids %v, want %v", gotIDs, wantIDs)
					}
					for i := range wantIDs {
						if wantIDs[i] != gotIDs[i] {
							t.Fatalf("assigned ids %v, want %v", gotIDs, wantIDs)
						}
					}
					if err := direct.RemoveItems([]int{0, 1}); err != nil {
						t.Fatal(err)
					}
					if err := wired.RemoveItems([]int{0, 1}); err != nil {
						t.Fatal(err)
					}
					corpus := mat.AppendRows(m.Items, add)
					keep := make([]int, 0, corpus.Rows()-2)
					for i := 2; i < corpus.Rows(); i++ {
						keep = append(keep, i)
					}
					corpus = corpus.SelectRows(keep)
					if err := mips.VerifyMutation(wired, factory(), m.Users, corpus, k, 1e-9); err != nil {
						t.Fatal(err)
					}
					mw, err := direct.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					mg, err := wired.QueryAll(k)
					if err != nil {
						t.Fatal(err)
					}
					for u := range mw {
						assertSameEntries(t, u, mw[u], mg[u])
					}
				})
			}
		}
	}
}

// TestLoopbackScanStatParity is the scan-attribution regression gate
// (coordinator-side ShardScanStats/WaveScanStats must aggregate
// worker-reported counters identically through loopback and direct paths).
// Pipelined is excluded: its live floor board makes tail scan counts
// scheduling-dependent, so only the deterministic schedules pin equality.
func TestLoopbackScanStatParity(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	for _, schedule := range []shard.Schedule{shard.SingleWave, shard.TwoWave, shard.Cascade} {
		t.Run(schedule.String(), func(t *testing.T) {
			cfg := shard.Config{
				Shards:      4,
				Partitioner: shard.ByNorm(),
				Schedule:    schedule,
				Factory:     func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
			}
			direct := shard.New(cfg)
			if err := direct.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			lb := transport.NewLoopback()
			cfg.WorkerDialer = lb.Dialer()
			wired := shard.New(cfg)
			if err := wired.Build(m.Users, m.Items); err != nil {
				t.Fatal(err)
			}
			direct.ResetScanStats()
			wired.ResetScanStats()
			if _, err := direct.QueryAll(k); err != nil {
				t.Fatal(err)
			}
			if _, err := wired.QueryAll(k); err != nil {
				t.Fatal(err)
			}
			dShards, wShards := direct.ShardScanStats(), wired.ShardScanStats()
			if len(dShards) != len(wShards) {
				t.Fatalf("shard stats length %d, want %d", len(wShards), len(dShards))
			}
			for si := range dShards {
				if dShards[si].Scanned != wShards[si].Scanned {
					t.Fatalf("shard %d scans: loopback %d, direct %d — attribution drifts across the wire",
						si, wShards[si].Scanned, dShards[si].Scanned)
				}
			}
			dWaves, wWaves := direct.WaveScanStats(), wired.WaveScanStats()
			if len(dWaves) != len(wWaves) {
				t.Fatalf("wave stats length %d, want %d", len(wWaves), len(dWaves))
			}
			for wi := range dWaves {
				if dWaves[wi].Scanned != wWaves[wi].Scanned {
					t.Fatalf("wave %d scans: loopback %d, direct %d", wi, wWaves[wi].Scanned, dWaves[wi].Scanned)
				}
			}
			if total := wired.ScanStats().Scanned; total == 0 {
				t.Fatal("loopback composite reports zero scans — worker meters not reaching the coordinator")
			}
		})
	}
}

// faultTarget is the shard the wire-fault cells inject into: a tail shard,
// so head-first schedules exercise fan-out containment, matching the
// in-process fault matrix.
const faultTarget = 1

// verifyCoveredTopK mirrors the in-process fault matrix's partial-mode
// oracle: got must be an exact top-k over the non-excluded item subset.
func verifyCoveredTopK(user []float64, items *mat.Matrix, got []topk.Entry, k int, excluded map[int]bool, tol float64) error {
	want := k
	if covered := items.Rows() - len(excluded); covered < want {
		want = covered
	}
	if len(got) != want {
		return fmt.Errorf("got %d entries, want %d", len(got), want)
	}
	seen := make(map[int]bool, len(got))
	for rank, e := range got {
		if excluded[e.Item] {
			return fmt.Errorf("rank %d: item %d belongs to a skipped shard", rank, e.Item)
		}
		if seen[e.Item] {
			return fmt.Errorf("duplicate item %d", e.Item)
		}
		seen[e.Item] = true
		truth := mat.Dot(user, items.Row(e.Item))
		if d := math.Abs(truth - e.Score); d > tol*(1+math.Abs(truth)) {
			return fmt.Errorf("rank %d item %d score %v, true %v", rank, e.Item, e.Score, truth)
		}
		if rank > 0 && e.Score > got[rank-1].Score+tol {
			return fmt.Errorf("ranks %d,%d out of order", rank-1, rank)
		}
	}
	if len(got) == 0 {
		return nil
	}
	kth := got[len(got)-1].Score
	for j := 0; j < items.Rows(); j++ {
		if seen[j] || excluded[j] {
			continue
		}
		if score := mat.Dot(user, items.Row(j)); score > kth+tol*(1+math.Abs(score)) {
			return fmt.Errorf("missed covered item %d with score %v > kth %v", j, score, kth)
		}
	}
	return nil
}

func assertAllHealthy(t *testing.T, sh *shard.Sharded) {
	t.Helper()
	for _, h := range sh.Health() {
		if h.State != shard.Healthy {
			t.Fatalf("shard %d %s (cause %v) — this fault must not quarantine", h.Shard, h.State, h.Cause)
		}
	}
}

// TestTransportFaultMatrix scripts the distributed failure modes over the
// loopback wire: {drop, delay-past-deadline, corrupt frame, duplicate reply}
// × {strict, partial}. Drops and corrupt frames quarantine the shard (strict
// fails closed with a typed error, partial absorbs the gap into an explicit
// Coverage) and revival re-dials to convergence; delays surface as the
// caller's context error and never quarantine; duplicate replies are
// absorbed by the idempotent contract with exact answers throughout.
func TestTransportFaultMatrix(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	ids := mips.AllUserIDs(m.Users.Rows())

	clean := shard.New(shard.Config{
		Shards: 4, Partitioner: shard.ByNorm(), Schedule: shard.TwoWave,
		Factory: func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
	})
	if err := clean.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	want, err := clean.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	// ByNorm is deterministic and orders shards head-to-tail, so the target
	// shard's item set is recomputable without reaching into shard internals.
	parts := shard.ByNorm().Partition(m.Items, 4)
	excluded := make(map[int]bool, len(parts[faultTarget]))
	for _, id := range parts[faultTarget] {
		excluded[id] = true
	}

	kinds := []faulty.ConnFaultKind{faulty.ConnDrop, faulty.ConnDelay, faulty.ConnCorrupt, faulty.ConnDuplicate}
	for _, kind := range kinds {
		for _, partial := range []bool{false, true} {
			mode := "strict"
			if partial {
				mode = "partial"
			}
			t.Run(fmt.Sprintf("%s/%s", kind, mode), func(t *testing.T) {
				lb := transport.NewLoopback()
				cf := faulty.NewConnFaults(faulty.ConnPlan{})
				lb.Wrap = func(si int, c transport.Conn) transport.Conn {
					if si == faultTarget {
						return cf.Wrap(c)
					}
					return c
				}
				sh := shard.New(shard.Config{
					Shards: 4, Partitioner: shard.ByNorm(), Schedule: shard.TwoWave,
					RetainShardSnapshots: true,
					WorkerDialer:         lb.Dialer(),
					Factory:              func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
				})
				if err := sh.Build(m.Users, m.Items); err != nil {
					t.Fatal(err)
				}
				// Build-time exchanges (caps, snapshot capture) already
				// advanced the shared counter; fault the next exchange —
				// the first query hitting the target shard's conn.
				cf.Schedule(faulty.ConnFault{Call: cf.Calls() + 1, Kind: kind, Latency: 2 * time.Second})

				switch {
				case kind == faulty.ConnDelay && !partial:
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					defer cancel()
					start := time.Now()
					_, err := sh.QueryCtx(ctx, ids, k, mips.QueryOptions{})
					if elapsed := time.Since(start); elapsed > time.Second {
						t.Fatalf("query outlived its 50ms deadline by %v", elapsed)
					}
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Fatalf("err = %v, want DeadlineExceeded", err)
					}
					assertAllHealthy(t, sh)

				case kind == faulty.ConnDelay && partial:
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					defer cancel()
					got, cov, err := sh.QueryPartial(ctx, ids, k)
					if err != nil {
						t.Fatalf("partial query failed: %v", err)
					}
					skippedTarget := false
					ex := make(map[int]bool)
					for _, si := range cov.Skipped {
						skippedTarget = skippedTarget || si == faultTarget
						for _, id := range parts[si] {
							ex[id] = true
						}
					}
					if !skippedTarget {
						t.Fatalf("coverage %v does not skip the delayed shard %d", cov, faultTarget)
					}
					for qi, u := range ids {
						if err := verifyCoveredTopK(m.Users.Row(u), m.Items, got[qi], k, ex, 1e-9); err != nil {
							t.Fatalf("user %d: %v", u, err)
						}
					}
					assertAllHealthy(t, sh)

				case kind == faulty.ConnDuplicate:
					// At-least-once delivery: idempotent worker calls absorb
					// the duplicate with exact answers and no quarantine.
					var got [][]topk.Entry
					var err error
					if partial {
						var cov mips.Coverage
						got, cov, err = sh.QueryPartial(context.Background(), ids, k)
						if err == nil && !cov.Complete() {
							t.Fatalf("coverage %v not complete under a duplicate reply", cov)
						}
					} else {
						got, err = sh.Query(ids, k)
					}
					if err != nil {
						t.Fatalf("duplicate reply failed the query: %v", err)
					}
					for u := range want {
						assertSameEntries(t, u, want[u], got[u])
					}
					assertAllHealthy(t, sh)

				case !partial: // drop / corrupt, strict
					_, err := sh.Query(ids, k)
					var se *shard.ShardError
					if !errors.As(err, &se) {
						t.Fatalf("err = %v, want *shard.ShardError", err)
					}
					if se.Shard != faultTarget {
						t.Fatalf("error names shard %d, want %d", se.Shard, faultTarget)
					}
					if kind == faulty.ConnDrop && !errors.Is(err, faulty.ErrInjected) {
						t.Fatalf("dropped call lost its injected cause: %v", err)
					}
					if err := sh.AwaitHealthy(5 * time.Second); err != nil {
						t.Fatalf("revival: %v", err)
					}
					if rev := sh.Health()[faultTarget].Revivals; rev < 1 {
						t.Fatalf("revivals = %d, want >= 1", rev)
					}
					got, err := sh.Query(ids, k)
					if err != nil {
						t.Fatalf("post-revival query: %v", err)
					}
					for u := range want {
						assertSameEntries(t, u, want[u], got[u])
					}

				default: // drop / corrupt, partial
					got, cov, err := sh.QueryPartial(context.Background(), ids, k)
					if err != nil {
						t.Fatalf("partial query failed: %v", err)
					}
					if cov.Answered != cov.Shards-1 || len(cov.Skipped) != 1 || cov.Skipped[0] != faultTarget {
						t.Fatalf("coverage %v, want exactly shard %d skipped", cov, faultTarget)
					}
					if wantCov := m.Items.Rows() - len(parts[faultTarget]); cov.ItemsCovered != wantCov {
						t.Fatalf("ItemsCovered = %d, want %d", cov.ItemsCovered, wantCov)
					}
					for qi, u := range ids {
						if err := verifyCoveredTopK(m.Users.Row(u), m.Items, got[qi], k, excluded, 1e-9); err != nil {
							t.Fatalf("user %d: %v", u, err)
						}
					}
					if err := sh.AwaitHealthy(5 * time.Second); err != nil {
						t.Fatalf("revival: %v", err)
					}
					got2, cov2, err := sh.QueryPartial(context.Background(), ids, k)
					if err != nil {
						t.Fatalf("post-revival partial query: %v", err)
					}
					if !cov2.Complete() {
						t.Fatalf("post-revival coverage %v not complete", cov2)
					}
					for u := range want {
						assertSameEntries(t, u, want[u], got2[u])
					}
				}

				// Revival re-dials through the same transport: the redial
				// must have gone over the wire, not around it.
				if lb.Stats().Dials < 4 {
					t.Fatalf("loopback dials = %d, want >= 4", lb.Stats().Dials)
				}
			})
		}
	}
}

// TestLoopbackPersistRoundTrip pins placement-through-the-manifest: a direct
// composite's snapshot loads into a loopback-dialed composite (each worker
// booting from its manifest section) and answers identically; a loopback
// composite's snapshot — whose shard sections are worker-sourced over the
// wire — loads back into a direct composite unchanged.
func TestLoopbackPersistRoundTrip(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	cfg := shard.Config{
		Shards: 3, Partitioner: shard.ByNorm(),
		Factory: func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
	}
	direct := shard.New(cfg)
	if err := direct.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	want, err := direct.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := direct.Save(&snap); err != nil {
		t.Fatal(err)
	}
	lb := transport.NewLoopback()
	wcfg := cfg
	wcfg.WorkerDialer = lb.Dialer()
	wired := shard.New(wcfg)
	if err := wired.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := lb.Stats(); st.Dials != 3 {
		t.Fatalf("loading a 3-shard manifest dialed %d workers, want 3", st.Dials)
	}
	got, err := wired.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		assertSameEntries(t, u, want[u], got[u])
	}

	// Round-trip back: the loopback composite's Save pulls each shard's
	// bytes over the wire (worker-sourced snapshots).
	var snap2 bytes.Buffer
	if err := wired.Save(&snap2); err != nil {
		t.Fatal(err)
	}
	back := shard.New(cfg)
	if err := back.Load(bytes.NewReader(snap2.Bytes())); err != nil {
		t.Fatal(err)
	}
	got2, err := back.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		assertSameEntries(t, u, want[u], got2[u])
	}
}
