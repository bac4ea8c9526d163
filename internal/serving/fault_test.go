package serving

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"optimus/internal/core"
	"optimus/internal/faulty"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
	"optimus/internal/shard"
)

func randMatrices(nUsers, nItems, f int, seed int64) (*mat.Matrix, *mat.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	users := mat.New(nUsers, f)
	items := mat.New(nItems, f)
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	for i := range items.Data() {
		items.Data()[i] = rng.NormFloat64()
	}
	return users, items
}

// TestQueryReturnsOnPostEnqueueCancel pins the enqueue-side cancellation
// contract: a caller whose ctx fires after the request is enqueued gets
// ctx.Err() back immediately — it does not wait out the solver call its
// batch is stuck behind — and the late response is absorbed by the buffered
// reply channel instead of leaking or blocking the dispatcher.
func TestQueryReturnsOnPostEnqueueCancel(t *testing.T) {
	solver, _, _ := buildSolver(t, 50, 80, 6)
	// Every solver call stalls 300ms on an uninterruptible sleep (no
	// deadline reaches the solver: the cancel ctx carries none).
	slow := faulty.Wrap(solver, faulty.Plan{
		Rate: 1, Kinds: []faulty.Kind{faulty.KindLatency}, Latency: 300 * time.Millisecond,
	})
	srv, err := New(slow, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = srv.Query(ctx, 3, 5)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("cancelled caller held for %v — it waited out the solver call", elapsed)
	}

	// An already-dead ctx never costs solver time: whether it loses the
	// enqueue race or is dropped by dispatch's pre-filter, the caller sees
	// its own ctx error.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := srv.Query(dead, 3, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled for a dead ctx", err)
	}
}

// TestGroupDeadlinePropagates pins end-to-end deadline propagation: the
// member deadline becomes the group solver call's context, the hung sharded
// fan-out notices it, and the caller gets DeadlineExceeded within the
// deadline plus scheduling slack — not after the hang.
func TestGroupDeadlinePropagates(t *testing.T) {
	users, items := randMatrices(80, 120, 6, 2)
	sh := shard.New(shard.Config{
		Shards:      4,
		Partitioner: shard.ByNorm(),
		Schedule:    shard.TwoWave,
		Factory: func() mips.Solver {
			return faulty.Wrap(core.NewBMM(core.BMMConfig{}), faulty.Plan{Faults: []faulty.Fault{{
				Op: faulty.OpQuery, Call: 1, Kind: faulty.KindLatency, Latency: 5 * time.Second,
			}}})
		},
	})
	if err := sh.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(sh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = srv.Query(ctx, 3, 5)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("hung shards stalled the caller %v past a 50ms deadline", elapsed)
	}
	// A ctx-type group error is not retried, so the hung solver was entered
	// exactly once per shard; a second, deadline-free query must hang — do
	// not issue one. Instead confirm the shards were not quarantined: the
	// deadline is the caller's fault, not the shards'.
	for _, h := range sh.Health() {
		if h.State != shard.Healthy {
			t.Fatalf("shard %d %s after a deadline — ctx errors must not quarantine", h.Shard, h.State)
		}
	}
}

// TestPanicDuringPipelinedServingWithLogMutations is the -race scenario of a
// serving pipeline under churn: one shard's sub-solver panics mid-query
// (two-wave fan-out) while catalog mutations flow through the server's
// mutation log. Degraded-mode queries keep answering (the panic becomes a
// Coverage gap), the generation contract holds (the serving generation ticks
// with the catalog), the shard revives, and the final state passes the
// mutation oracle against a freshly built solver.
func TestPanicDuringPipelinedServingWithLogMutations(t *testing.T) {
	users, items := randMatrices(120, 160, 6, 3)
	var made int32
	var armed *faulty.Solver
	sh := shard.New(shard.Config{
		Shards:               4,
		Partitioner:          shard.ByNorm(),
		Schedule:             shard.TwoWave,
		RetainShardSnapshots: true,
		Factory: func() mips.Solver {
			s := core.NewBMM(core.BMMConfig{})
			if atomic.AddInt32(&made, 1) == 2 {
				// Exactly one of the initial shards panics on its 5th query.
				armed = faulty.Wrap(s, faulty.Plan{Faults: []faulty.Fault{{
					Op: faulty.OpQuery, Call: 5, Kind: faulty.KindPanic,
				}}})
				return armed
			}
			return s
		},
	})
	if err := sh.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(sh, Config{AllowPartial: true, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	log, err := srv.Log(mutlog.Config{MaxEvents: 4, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const k = 5
	const nAdds = 16
	pool, _ := randMatrices(nAdds, 1, 6, 4) // nAdds fresh item vectors
	qdone := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			_, cov, err := srv.QueryPartial(context.Background(), i%users.Rows(), k)
			if err != nil {
				qdone <- fmt.Errorf("query %d: %w", i, err)
				return
			}
			if cov.Answered < 1 {
				qdone <- fmt.Errorf("query %d: empty coverage %v", i, cov)
				return
			}
		}
		qdone <- nil
	}()
	for i := 0; i < nAdds; i++ {
		if _, err := log.Add(pool.RowSlice(i, i+1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-qdone; err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sh.AwaitHealthy(5 * time.Second); err != nil {
		t.Fatalf("shard did not revive: %v", err)
	}
	// Two-wave can bound a tail shard out of a batch, so check the armed
	// shard was reached often enough for its panic to fire.
	if n := armed.Calls(faulty.OpQuery); n < 5 {
		t.Fatalf("the armed shard answered %d queries — its 5th-query panic never fired", n)
	}

	// Generation contract: the catalog changed through the log, so both the
	// solver's mutation stamp and the serving generation advanced.
	if g := sh.Generation(); g == 0 {
		t.Fatal("solver generation did not advance under logged mutations")
	}
	if st := srv.Stats(); st.Generation == 0 || st.LogFlushedEvents != nAdds {
		t.Fatalf("stats %+v: want a generation tick and %d flushed events", st, nAdds)
	}
	srv.Close()

	// Post-revival exactness: the mutated composite answers like a fresh
	// solver over the tracked corpus.
	corpus := mat.AppendRows(items, pool)
	if err := mips.VerifyMutation(sh, core.NewBMM(core.BMMConfig{}), users, corpus, k, 1e-9); err != nil {
		t.Fatal(err)
	}
}
