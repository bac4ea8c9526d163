package serving

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/mutlog"
)

// manualLog disables both automatic flush triggers — explicit Flush only.
var manualLog = mutlog.Config{MaxEvents: -1, MaxDelay: -1}

// TestMutateGenerationTracksItemMutations pins the Mutate short-circuit: the
// serving generation advances exactly when the item catalog changed — not
// for empty fns, failed mutations, or user-arrival-only maintenance.
func TestMutateGenerationTracksItemMutations(t *testing.T) {
	users, items := randMatrix(11, 20, 5), randMatrix(12, 30, 5)
	solver := mips.NewNaive()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := srv.Mutate(func(mips.ItemMutator) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if g := srv.Stats().Generation; g != 0 {
		t.Fatalf("generation %d after a no-op Mutate, want 0", g)
	}
	if err := srv.Mutate(func(m mips.ItemMutator) error {
		_, err := m.(mips.UserAdder).AddUsers(randMatrix(13, 2, 5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if g := srv.Stats().Generation; g != 0 {
		t.Fatalf("generation %d after user-arrival-only maintenance, want 0", g)
	}
	if err := srv.Mutate(func(m mips.ItemMutator) error {
		return m.RemoveItems([]int{999}) // fails: nothing applied
	}); err == nil {
		t.Fatal("invalid removal succeeded")
	}
	if g := srv.Stats().Generation; g != 0 {
		t.Fatalf("generation %d after a failed mutation, want 0", g)
	}
	if err := srv.Mutate(func(m mips.ItemMutator) error {
		_, err := m.AddItems(randMatrix(14, 1, 5))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if g := srv.Stats().Generation; g != 1 {
		t.Fatalf("generation %d after a real mutation, want 1", g)
	}
	// A partially-applied fn (successful mutation, then an error) changed
	// the catalog: the generation must tick even though Mutate errors.
	if err := srv.Mutate(func(m mips.ItemMutator) error {
		if _, err := m.AddItems(randMatrix(15, 1, 5)); err != nil {
			return err
		}
		return errors.New("post-mutation failure")
	}); err == nil {
		t.Fatal("fn error swallowed")
	}
	if g := srv.Stats().Generation; g != 2 {
		t.Fatalf("generation %d after a partial fn, want 2 (the catalog changed)", g)
	}
}

// TestServerLogCoalesces wires the vertical: events enqueued on the server's
// log, one flush, one drain, one generation tick; the next query serves the
// flushed catalog and Stats mirrors the log's counters.
func TestServerLogCoalesces(t *testing.T) {
	users, items := randMatrix(21, 40, 6), randMatrix(22, 60, 6)
	solver := mips.NewNaive()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got, want := srv.NumItems(), items.Rows(); got != want {
		t.Fatalf("NumItems = %d, want %d", got, want)
	}
	log, err := srv.Log(manualLog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Log(manualLog); err == nil {
		t.Fatal("second log attached")
	}

	arrivals := randMatrix(23, 3, 6)
	handles, err := log.Add(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Remove([]int{0, 5}); err != nil {
		t.Fatal(err)
	}
	if err := log.Cancel(handles[2]); err != nil { // annihilated pair
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Generation != 0 || st.LogPending != 4 || st.LogFlushes != 0 {
		t.Fatalf("pre-flush stats %+v", st)
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Generation != 1 || st.LogPending != 0 || st.LogFlushes != 1 || st.LogFlushedEvents != 4 {
		t.Fatalf("post-flush stats %+v", st)
	}
	// One-at-a-time reference: +3 arrivals, -{0,5}, third arrival cancelled.
	corpus := mat.RemoveRows(mat.AppendRows(items, arrivals.RowSlice(0, 2)), []int{0, 5})
	res, err := srv.Query(context.Background(), 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyTopK(users.Row(7), corpus, res, 5, 1e-9); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles[:2] {
		id, ok := log.Resolve(h)
		if want := items.Rows() + i - 2; !ok || id != want {
			t.Fatalf("handle %d resolved to (%d,%v), want (%d,true)", h, id, ok, want)
		}
	}
}

// TestServerLogRequiresMutableSized: the log needs a mutable, size-reporting
// solver.
func TestServerLogRequiresMutableSized(t *testing.T) {
	solver := &staticSolver{inner: mips.NewNaive()}
	users, items := randMatrix(31, 10, 4), randMatrix(32, 20, 4)
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.NumItems() != -1 {
		t.Fatalf("NumItems on an un-Sized solver = %d, want -1", srv.NumItems())
	}
	if _, err := srv.Log(manualLog); !errors.Is(err, ErrNotMutable) {
		t.Fatalf("Log on a non-mutable solver: %v, want ErrNotMutable", err)
	}
}

// TestServerCloseFlushesLog: pending events survive Close (the final flush
// runs against the drained solver).
func TestServerCloseFlushesLog(t *testing.T) {
	users, items := randMatrix(41, 10, 4), randMatrix(42, 20, 4)
	solver := mips.NewNaive()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	log, err := srv.Log(manualLog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Add(randMatrix(43, 2, 4)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if st := log.Stats(); st.PendingEvents != 0 || st.FlushedAdds != 2 {
		t.Fatalf("Close left the log at %+v", st)
	}
	if solver.NumItems() != items.Rows()+2 {
		t.Fatalf("solver has %d items after Close, want %d", solver.NumItems(), items.Rows()+2)
	}
	// A closed server refuses new logs: nothing would ever close them.
	if _, err := srv.Log(manualLog); !errors.Is(err, ErrClosed) {
		t.Fatalf("Log on a closed server: %v, want ErrClosed", err)
	}
}

// TestLogFlushUnderLoad is the mutation × concurrency test (run with
// -race): the background flusher applies batches while queries hammer the
// server and user arrivals interleave through Mutate. Every answer must be
// exact against the append-only corpus, the serving generation must be
// monotone, and a completed flush must be visible to the next query — no
// post-flush stale reads.
func TestLogFlushUnderLoad(t *testing.T) {
	const f = 6
	users, items := randMatrix(51, 100, f), randMatrix(52, 80, f)
	solver := mips.NewNaive()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	log, err := srv.Log(mutlog.Config{MaxEvents: 8, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// Append-only churn: the corpus at any instant is a prefix of
	// [items ++ arrivals], so any answered (id, score) pair can be checked
	// against the full eventual matrix regardless of which generation
	// answered it.
	const rounds = 12
	const perRound = 3
	arrivals := randMatrix(53, rounds*perRound, f)
	full := mat.AppendRows(items, arrivals)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			lastGen := uint64(0)
			for !stop.Load() {
				if g := srv.Stats().Generation; g < lastGen {
					errs <- fmt.Errorf("generation went backwards: %d after %d", g, lastGen)
					return
				} else {
					lastGen = g
				}
				u := rng.Intn(users.Rows())
				res, err := srv.Query(context.Background(), u, 5)
				if err != nil {
					errs <- err
					return
				}
				for _, e := range res {
					if e.Item < 0 || e.Item >= full.Rows() {
						errs <- fmt.Errorf("item %d outside the eventual corpus of %d", e.Item, full.Rows())
						return
					}
					truth := mat.Dot(users.Row(u), full.Row(e.Item))
					if d := truth - e.Score; d > 1e-9 || d < -1e-9 {
						errs <- fmt.Errorf("user %d item %d score %v, truth %v", u, e.Item, e.Score, truth)
						return
					}
				}
			}
		}(w)
	}

	var lastHandles []mutlog.Handle
	for round := 0; round < rounds; round++ {
		hs, err := log.Add(arrivals.RowSlice(round*perRound, (round+1)*perRound))
		if err != nil {
			t.Fatal(err)
		}
		lastHandles = hs
		if round%3 == 2 {
			// Interleaved user arrival through the drain path; it must not
			// tick the catalog generation.
			if err := srv.Mutate(func(m mips.ItemMutator) error {
				_, err := m.(mips.UserAdder).AddUsers(randMatrix(int64(700+round), 2, f))
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Millisecond)
	}
	// Explicit flush: once it returns, every enqueued event is applied and
	// the very next query must see the full catalog.
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if id, ok := log.Resolve(lastHandles[perRound-1]); !ok || id != full.Rows()-1 {
		t.Fatalf("final handle resolved to (%d,%v), want (%d,true)", id, ok, full.Rows()-1)
	}
	res, err := srv.Query(context.Background(), 3, full.Rows())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != full.Rows() {
		t.Fatalf("post-flush query saw %d items, want %d — stale read", len(res), full.Rows())
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The catalog generation counts non-empty flushes only: the interleaved
	// AddUsers maintenance never ticked it.
	st := srv.Stats()
	if st.Generation != uint64(st.LogFlushes) {
		t.Fatalf("generation %d but %d log flushes — a non-catalog Mutate ticked it", st.Generation, st.LogFlushes)
	}
	if st.LogFlushedEvents != rounds*perRound {
		t.Fatalf("flushed %d events, want %d", st.LogFlushedEvents, rounds*perRound)
	}
}
