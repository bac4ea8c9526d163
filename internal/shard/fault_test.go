package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"optimus/internal/core"
	"optimus/internal/faulty"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
)

// faultTarget is the shard the fault tests inject into: a tail shard, so
// both schedules (two-wave included) exercise their fan-out containment
// rather than two-wave's head special case.
const faultTarget = 1

// newFaultComposite builds a 4-shard BMM composite pinned to the given
// schedule (BMM implements every floor interface, so no schedule falls back).
func newFaultComposite(t *testing.T, users, items *mat.Matrix, schedule Schedule, retain bool) *Sharded {
	t.Helper()
	sh := New(Config{
		Shards:               4,
		Partitioner:          ByNorm(),
		Schedule:             schedule,
		RetainShardSnapshots: retain,
		Factory:              func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
	})
	if err := sh.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if got := sh.ActiveSchedule(); got != schedule {
		t.Fatalf("active schedule %v, want %v", got, schedule)
	}
	return sh
}

// armShard swaps a fault-injecting wrapper over one shard's sub-solver,
// re-attaching the wrapped solver through the worker boundary. Only valid
// before queries start (the test owns the composite exclusively).
func armShard(sh *Sharded, si int, plan faulty.Plan) *faulty.Solver {
	lw := sh.shards[si].w.(*localWorker)
	w := faulty.Wrap(lw.Solver(), plan)
	sh.shards[si].attach(NewWorker(w))
	return w
}

// shardGlobalIDs snapshots the global item ids shard si holds. Captured
// before faults fire: once the reviver may be swapping shard state, tests
// must not touch sh.shards directly.
func shardGlobalIDs(sh *Sharded, si int) map[int]bool {
	out := make(map[int]bool)
	st := &sh.shards[si]
	if st.ids != nil {
		for _, id := range st.ids {
			out[id] = true
		}
		return out
	}
	for id := st.base; id < st.base+st.count; id++ {
		out[id] = true
	}
	return out
}

func assertAllHealthy(t *testing.T, sh *Sharded) {
	t.Helper()
	for _, h := range sh.Health() {
		if h.State != Healthy {
			t.Fatalf("shard %d %s (cause %v) — this fault must not quarantine", h.Shard, h.State, h.Cause)
		}
	}
}

// TestFaultMatrix is the containment matrix: {error, panic, hang-past-
// deadline} × {single, two-wave} × {strict, partial}.
// Strict mode fails closed with a typed error naming the faulty shard, the
// shard quarantines and revives, and post-revival answers are entry-identical
// to a never-faulted composite. Partial mode absorbs the fault into a
// Coverage gap with the covered subset exact. Context errors (the hang cells)
// never quarantine.
func TestFaultMatrix(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	ids := mips.AllUserIDs(m.Users.Rows())

	clean := newFaultComposite(t, m.Users, m.Items, SingleWave, false)
	want, err := clean.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}

	schedules := []Schedule{SingleWave, TwoWave}
	kinds := []faulty.Kind{faulty.KindError, faulty.KindPanic, faulty.KindLatency}
	for _, schedule := range schedules {
		for _, kind := range kinds {
			for _, partial := range []bool{false, true} {
				mode := "strict"
				if partial {
					mode = "partial"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", schedule, kind, mode), func(t *testing.T) {
					sh := newFaultComposite(t, m.Users, m.Items, schedule, true)
					excluded := make([]map[int]bool, 4)
					for si := range excluded {
						excluded[si] = shardGlobalIDs(sh, si)
					}
					targetItems := len(excluded[faultTarget])
					armShard(sh, faultTarget, faulty.Plan{Faults: []faulty.Fault{{
						Op: faulty.OpQuery, Call: 1, Kind: kind, Latency: 2 * time.Second,
					}}})

					switch {
					case kind == faulty.KindLatency && !partial:
						// A hung shard must not stall the query past its
						// deadline, and a deadline is not a shard fault.
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

					case kind == faulty.KindLatency && partial:
						ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
						defer cancel()
						got, cov, err := sh.QueryPartial(ctx, ids, k)
						if err != nil {
							t.Fatalf("partial query failed: %v", err)
						}
						if cov.Answered < 1 {
							t.Fatalf("coverage %v: nothing answered", cov)
						}
						skippedTarget := false
						ex := make(map[int]bool)
						for _, si := range cov.Skipped {
							skippedTarget = skippedTarget || si == faultTarget
							for id := range excluded[si] {
								ex[id] = true
							}
						}
						if !skippedTarget {
							t.Fatalf("coverage %v does not skip the hung shard %d", cov, faultTarget)
						}
						if err := mips.VerifyCovered(m.Users, m.Items, got, k, ex); err != nil {
							t.Fatal(err)
						}
						assertAllHealthy(t, sh)

					case !partial:
						_, err := sh.Query(ids, k)
						var se *ShardError
						if !errors.As(err, &se) {
							t.Fatalf("err = %v, want *ShardError", err)
						}
						if se.Shard != faultTarget {
							t.Fatalf("error names shard %d, want %d", se.Shard, faultTarget)
						}
						if kind == faulty.KindPanic {
							var pe *PanicError
							if !errors.As(err, &pe) {
								t.Fatalf("err = %v, want a *PanicError cause", err)
							}
							if len(pe.Stack) == 0 {
								t.Fatal("recovered panic carries no stack")
							}
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
						if err := mips.SameRows(want, got); err != nil {
							t.Fatal(err)
						}

					default: // error/panic, partial
						got, cov, err := sh.QueryPartial(context.Background(), ids, k)
						if err != nil {
							t.Fatalf("partial query failed: %v", err)
						}
						if cov.Answered != cov.Shards-1 || len(cov.Skipped) != 1 || cov.Skipped[0] != faultTarget {
							t.Fatalf("coverage %v, want exactly shard %d skipped", cov, faultTarget)
						}
						if wantCov := m.Items.Rows() - targetItems; cov.ItemsCovered != wantCov {
							t.Fatalf("ItemsCovered = %d, want %d", cov.ItemsCovered, wantCov)
						}
						if err := mips.VerifyCovered(m.Users, m.Items, got, k, excluded[faultTarget]); err != nil {
							t.Fatal(err)
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
						if err := mips.SameRows(want, got2); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestHungShardDeadline pins the two-wave hot path's liveness bound: one
// tail shard hangs far past the deadline, the query returns at the deadline
// (plus scheduling slack), no goroutine outlives it, and the hang does not
// quarantine the shard.
func TestHungShardDeadline(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	sh := newFaultComposite(t, m.Users, m.Items, TwoWave, false)
	armShard(sh, faultTarget, faulty.Plan{Faults: []faulty.Fault{{
		Op: faulty.OpQuery, Call: 1, Kind: faulty.KindLatency, Latency: 5 * time.Second,
	}}})
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sh.QueryCtx(ctx, mips.AllUserIDs(m.Users.Rows()), k, mips.QueryOptions{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("hung shard stalled the query for %v past a 50ms deadline", elapsed)
	}
	assertAllHealthy(t, sh)

	// Everything the fan-out spawned must be gone once the call returns;
	// allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines grew %d -> %d after a deadline-bounded query", before, n)
	}
}

// TestRevivalFromSnapshot pins the revival mechanism choice: with retained
// snapshots the shard is restored without a rebuild (Plans' build counter
// stands still); without them revival re-plans, counting a build. Both end
// entry-identical to a never-faulted composite.
func TestRevivalFromSnapshot(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	clean := newFaultComposite(t, m.Users, m.Items, TwoWave, false)
	want, err := clean.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, retain := range []bool{true, false} {
		t.Run(fmt.Sprintf("retain=%v", retain), func(t *testing.T) {
			sh := newFaultComposite(t, m.Users, m.Items, TwoWave, retain)
			buildsBefore := sh.Plans()[faultTarget].Builds
			armShard(sh, faultTarget, faulty.Plan{Faults: []faulty.Fault{{
				Op: faulty.OpQuery, Call: 1, Kind: faulty.KindPanic,
			}}})
			if _, err := sh.QueryAll(k); err == nil {
				t.Fatal("faulted query succeeded")
			}
			if err := sh.AwaitHealthy(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			if rev := sh.Health()[faultTarget].Revivals; rev != 1 {
				t.Fatalf("revivals = %d, want 1", rev)
			}
			buildsAfter := sh.Plans()[faultTarget].Builds
			if retain && buildsAfter != buildsBefore {
				t.Fatalf("snapshot revival counted a build (%d -> %d)", buildsBefore, buildsAfter)
			}
			if !retain && buildsAfter != buildsBefore+1 {
				t.Fatalf("rebuild revival builds %d -> %d, want +1", buildsBefore, buildsAfter)
			}
			got, err := sh.QueryAll(k)
			if err != nil {
				t.Fatal(err)
			}
			if err := mips.SameRows(want, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDialedRevivalChecksItemCount: revival under a dialer boots through the
// same path as Load, so a retained section whose solver holds the wrong
// number of items is refused and the shard is rebuilt instead (one more
// build), ending entry-identical to a never-faulted composite.
func TestDialedRevivalChecksItemCount(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	clean := newFaultComposite(t, m.Users, m.Items, TwoWave, false)
	want, err := clean.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	sh := New(Config{
		Shards:               4,
		Partitioner:          ByNorm(),
		Schedule:             TwoWave,
		RetainShardSnapshots: true,
		Factory:              func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
		WorkerDialer: func(si int, section []byte) (Worker, error) {
			dials.Add(1)
			ls, err := persist.LoadAny(persist.FromBytes(section))
			if err != nil {
				return nil, err
			}
			return NewWorker(ls.(mips.Solver)), nil
		},
	})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	small := core.NewBMM(core.BMMConfig{})
	if err := small.Build(m.Users, m.Items.SelectRows([]int{0, 1, 2})); err != nil {
		t.Fatal(err)
	}
	wrong, err := mips.SnapshotBytes(small)
	if err != nil {
		t.Fatal(err)
	}
	sh.snaps[faultTarget] = wrong
	buildsBefore := sh.Plans()[faultTarget].Builds
	dialsBefore := dials.Load()
	armShard(sh, faultTarget, faulty.Plan{Faults: []faulty.Fault{{
		Op: faulty.OpQuery, Call: 1, Kind: faulty.KindPanic,
	}}})
	if _, err := sh.QueryAll(k); err == nil {
		t.Fatal("faulted query succeeded")
	}
	if err := sh.AwaitHealthy(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := dials.Load() - dialsBefore; d != 2 {
		t.Fatalf("revival dialed %d workers, want 2 (the refused section, then the rebuild)", d)
	}
	if b := sh.Plans()[faultTarget].Builds; b != buildsBefore+1 {
		t.Fatalf("builds %d -> %d, want a rebuild after the refused section", buildsBefore, b)
	}
	got, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.SameRows(want, got); err != nil {
		t.Fatal(err)
	}
}

// closeCounted is a dialed worker that counts its Close calls.
type closeCounted struct {
	Worker
	closes *atomic.Int64
	closed atomic.Bool
}

func (w *closeCounted) Close() error {
	w.closed.Store(true)
	w.closes.Add(1)
	return w.Worker.Close()
}

// TestStaleRevivalClosesItsReplacement: a mutation that lands while a
// revival builds makes the revival stale at its commit. The replacement it
// dialed is closed, the retry heals the shard, the composite answers == a
// fresh build over the mutated corpus, and every dialed worker is either
// closed or live.
func TestStaleRevivalClosesItsReplacement(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	var dials, closes atomic.Int64
	var gate atomic.Bool
	blocked := make(chan *closeCounted, 1)
	release := make(chan struct{})
	sh := New(Config{
		Shards:      4,
		Partitioner: ByNorm(),
		Schedule:    TwoWave,
		Factory:     func() mips.Solver { return core.NewBMM(core.BMMConfig{}) },
		WorkerDialer: func(si int, section []byte) (Worker, error) {
			ls, err := persist.LoadAny(persist.FromBytes(section))
			if err != nil {
				return nil, err
			}
			w := &closeCounted{Worker: NewWorker(ls.(mips.Solver)), closes: &closes}
			dials.Add(1)
			if gate.CompareAndSwap(true, false) {
				blocked <- w
				<-release
			}
			return w, nil
		},
	})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	// The largest-norm item routes its copy to shard 0, away from the
	// revived shard, so the mutation patches and dials nothing.
	norms := m.Items.RowNorms()
	top := 0
	for i, n := range norms {
		if n > norms[top] {
			top = i
		}
	}
	gate.Store(true)
	sh.quarantine(faultTarget, errors.New("injected fault"))
	stale := <-blocked // the revival's replacement, dialed under the read lock
	added := make(chan error, 1)
	go func() {
		_, err := sh.AddItems(m.Items.SelectRows([]int{top}))
		added <- err
	}()
	// A failing TryRLock means the writer is queued behind the revival.
	for sh.stateMu.TryRLock() {
		sh.stateMu.RUnlock()
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	if err := sh.AwaitHealthy(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !stale.closed.Load() {
		t.Fatal("the stale revival left its replacement worker open")
	}
	if rev := sh.Health()[faultTarget].Revivals; rev != 1 {
		t.Fatalf("revivals = %d, want 1", rev)
	}
	if d, c := dials.Load(), closes.Load(); d != c+4 {
		t.Fatalf("dialed %d workers and closed %d, want 4 live", d, c)
	}
	want, err := newFaultComposite(t, m.Users, sh.Items(), TwoWave, false).QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		if !slices.Equal(want[u], got[u]) {
			t.Fatalf("user %d: %v, fresh build %v", u, got[u], want[u])
		}
	}
}

// TestCondemnedShard drives revival to exhaustion: every rebuild attempt
// fails, the shard is condemned (the reviver gives up and exits), strict
// queries keep failing closed with the quarantine cause, and a full Build
// returns the composite to service.
func TestCondemnedShard(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	var failRebuilds atomic.Bool
	sh := New(Config{
		Shards:      4,
		Partitioner: ByNorm(),
		Factory: func() mips.Solver {
			s := core.NewBMM(core.BMMConfig{})
			if failRebuilds.Load() {
				return faulty.Wrap(s, faulty.Plan{Rate: 1, Kinds: []faulty.Kind{faulty.KindError}})
			}
			return s
		},
	})
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	failRebuilds.Store(true)
	armShard(sh, faultTarget, faulty.Plan{Faults: []faulty.Fault{{
		Op: faulty.OpQuery, Call: 1, Kind: faulty.KindPanic,
	}}})
	if _, err := sh.QueryAll(k); err == nil {
		t.Fatal("faulted query succeeded")
	}
	deadline := time.Now().Add(10 * time.Second)
	for sh.Health()[faultTarget].State != Condemned {
		if time.Now().After(deadline) {
			t.Fatalf("shard still %s after revival attempts exhausted", sh.Health()[faultTarget].State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := sh.AwaitHealthy(10 * time.Millisecond); err == nil {
		t.Fatal("AwaitHealthy reported a condemned composite healthy")
	}
	if _, err := sh.QueryAll(k); !errors.Is(err, ErrShardQuarantined) {
		t.Fatalf("err = %v, want ErrShardQuarantined", err)
	}
	failRebuilds.Store(false)
	if err := sh.Build(m.Users, m.Items); err != nil {
		t.Fatal(err)
	}
	if err := sh.AwaitHealthy(time.Second); err != nil {
		t.Fatalf("rebuilt composite: %v", err)
	}
	got, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users, m.Items, got, k); err != nil {
		t.Fatal(err)
	}
}

// TestTornMutationRepair injects the torn-write fault — the sub-solver
// applies an AddItems patch and then reports failure — and checks the repair
// policy: the composite-level mutation still commits (ids assigned,
// generation advanced), the damaged shard is rebuilt over its intended
// post-mutation membership, and answers stay exact.
func TestTornMutationRepair(t *testing.T) {
	m := model(t, "netflix-nomad-25", 0.04)
	const k = 7
	sh := newFaultComposite(t, m.Users, m.Items, TwoWave, true)
	armShard(sh, faultTarget, faulty.Plan{Faults: []faulty.Fault{{
		Op: faulty.OpMutate, Call: 1, Kind: faulty.KindTorn,
	}}})
	genBefore := sh.Generation()

	add := m.Items.RowSlice(0, 3) // reuse existing rows as fresh vectors
	ids, err := sh.AddItems(add)
	if err != nil {
		t.Fatalf("torn mutation surfaced to the composite caller: %v", err)
	}
	n := m.Items.Rows()
	for i, id := range ids {
		if id != n+i {
			t.Fatalf("assigned ids %v, want [%d,%d)", ids, n, n+3)
		}
	}
	if g := sh.Generation(); g != genBefore+1 {
		t.Fatalf("generation %d -> %d, want +1", genBefore, g)
	}
	if err := sh.AwaitHealthy(5 * time.Second); err != nil {
		t.Fatalf("post-repair: %v", err)
	}
	corpus := mat.AppendRows(m.Items, add)
	got, err := sh.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(m.Users, corpus, got, k); err != nil {
		t.Fatal(err)
	}
}
