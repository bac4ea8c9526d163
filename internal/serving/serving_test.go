package serving

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"optimus/internal/core"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

func buildSolver(t testing.TB, nUsers, nItems, f int) (mips.Solver, *mat.Matrix, *mat.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	users := mat.New(nUsers, f)
	items := mat.New(nItems, f)
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	for i := range items.Data() {
		items.Data()[i] = rng.NormFloat64()
	}
	s := core.NewMaximus(core.MaximusConfig{Seed: 1})
	if err := s.Build(users, items); err != nil {
		t.Fatal(err)
	}
	return s, users, items
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("expected nil-solver error")
	}
}

func TestSingleQueryExact(t *testing.T) {
	solver, users, items := buildSolver(t, 50, 80, 6)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.Query(context.Background(), 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyTopK(users.Row(7), items, res, 5, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentQueriesAllExact(t *testing.T) {
	solver, users, items := buildSolver(t, 200, 150, 8)
	srv, err := New(solver, Config{MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 16
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				u := rng.Intn(200)
				k := 1 + rng.Intn(8)
				res, err := srv.Query(context.Background(), u, k)
				if err != nil {
					errs <- err
					return
				}
				if err := mips.VerifyTopK(users.Row(u), items, res, k, 1e-9); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("requests = %d, want %d", st.Requests, clients*perClient)
	}
	if st.Batches <= 0 || st.Batches > st.Requests {
		t.Fatalf("implausible batch count %d for %d requests", st.Batches, st.Requests)
	}
}

func TestMixedKRequests(t *testing.T) {
	solver, users, items := buildSolver(t, 60, 40, 5)
	srv, err := New(solver, Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := 1 + i%4 // four distinct k values, sharing batches when they coincide
			res, err := srv.Query(context.Background(), i, k)
			if err != nil {
				t.Error(err)
				return
			}
			if err := mips.VerifyTopK(users.Row(i), items, res, k, 1e-9); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

func TestBadRequestDoesNotPoisonBatch(t *testing.T) {
	solver, users, items := buildSolver(t, 30, 20, 4)
	srv, err := New(solver, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	results := make([]error, 4)
	users2 := []int{5, 999, 7, -1} // two valid, two invalid
	for i, u := range users2 {
		wg.Add(1)
		go func(i, u int) {
			defer wg.Done()
			res, err := srv.Query(context.Background(), u, 3)
			if err == nil {
				err = mips.VerifyTopK(users.Row(u), items, res, 3, 1e-9)
			}
			results[i] = err
		}(i, u)
	}
	wg.Wait()
	if results[0] != nil || results[2] != nil {
		t.Fatalf("valid requests failed: %v %v", results[0], results[2])
	}
	if results[1] == nil || results[3] == nil {
		t.Fatal("invalid user ids must fail individually")
	}
}

// countingSolver wraps a solver and counts QueryCtx calls — the one method
// the server answers through — forwarding the wrapped solver's mips.Sized
// information.
type countingSolver struct {
	mips.Solver
	calls int
}

func (c *countingSolver) QueryCtx(ctx context.Context, ids []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	c.calls++
	return c.Solver.QueryCtx(ctx, ids, k, opts)
}

func (c *countingSolver) NumUsers() int { return c.Solver.(mips.Sized).NumUsers() }
func (c *countingSolver) NumItems() int { return c.Solver.(mips.Sized).NumItems() }

// hidden re-wraps a countingSolver so the mips.Sized type assertion fails.
type hidden struct{ c *countingSolver }

func (h hidden) Name() string                           { return h.c.Name() }
func (h hidden) Batches() bool                          { return h.c.Batches() }
func (h hidden) Build(u, i *mat.Matrix) error           { return h.c.Build(u, i) }
func (h hidden) QueryAll(k int) ([][]topk.Entry, error) { return h.c.QueryAll(k) }
func (h hidden) Query(ids []int, k int) ([][]topk.Entry, error) {
	return h.c.Query(ids, k)
}
func (h hidden) QueryCtx(ctx context.Context, ids []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	return h.c.QueryCtx(ctx, ids, k, opts)
}

// dispatchBatch drives the dispatcher directly with a synthetic batch, so
// the call accounting is deterministic (batch formation depends on timing).
func dispatchBatch(t *testing.T, srv *Server, userIDs []int, k int) []response {
	t.Helper()
	batch := make([]request, len(userIDs))
	for i, u := range userIDs {
		batch[i] = request{userID: u, k: k}
	}
	return dispatchRequests(t, srv, batch)
}

// dispatchRequests is dispatchBatch for hand-built requests (mixed k,
// per-request contexts); it supplies the reply channels.
func dispatchRequests(t *testing.T, srv *Server, batch []request) []response {
	t.Helper()
	for i := range batch {
		batch[i].done = make(chan response, 1)
	}
	srv.dispatch(batch)
	out := make([]response, len(batch))
	for i, req := range batch {
		select {
		case out[i] = <-req.done:
		default:
			t.Fatalf("request %d not answered", i)
		}
	}
	return out
}

// TestPoisonedBatchCostsO1ExtraCalls is the regression test for the batch
// retry path: one bad user id in a batch of B must cost O(1) extra solver
// calls (the failed group, one probe for the poisoned request, one group
// retry for the healthy rest), not O(B).
func TestPoisonedBatchCostsO1ExtraCalls(t *testing.T) {
	base, users, items := buildSolver(t, 64, 40, 5)
	cs := &countingSolver{Solver: base}
	srv, err := New(cs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const batchSize = 32
	ids := make([]int, batchSize)
	for i := range ids {
		ids[i] = i
	}
	ids[11] = 999 // the poison
	cs.calls = 0
	out := dispatchBatch(t, srv, ids, 3)
	const wantCalls = 3 // failed group + poisoned probe + healthy retry
	if cs.calls != wantCalls {
		t.Fatalf("batch of %d with one bad id cost %d solver calls, want %d",
			batchSize, cs.calls, wantCalls)
	}
	for i, resp := range out {
		if i == 11 {
			if resp.err == nil {
				t.Fatal("poisoned request must fail")
			}
			continue
		}
		if resp.err != nil {
			t.Fatalf("healthy request %d failed: %v", i, resp.err)
		}
		if err := mips.VerifyTopK(users.Row(ids[i]), items, resp.entries, 3, 1e-9); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Several poisoned requests: extra calls grow with the poison count,
	// never with the batch size.
	ids[3], ids[20] = -5, 1000
	cs.calls = 0
	dispatchBatch(t, srv, ids, 3)
	if want := 1 + 3 + 1; cs.calls != want { // group + 3 probes + retry
		t.Fatalf("3 bad ids cost %d solver calls, want %d", cs.calls, want)
	}

	// A fully healthy batch stays a single call.
	ids[3], ids[11], ids[20] = 3, 11, 20
	cs.calls = 0
	dispatchBatch(t, srv, ids, 3)
	if cs.calls != 1 {
		t.Fatalf("healthy batch cost %d solver calls, want 1", cs.calls)
	}
}

// TestPoisonedBatchSerialFallback pins the behaviour for solvers that do
// not report their size: correctness is preserved through the serial path.
func TestPoisonedBatchSerialFallback(t *testing.T) {
	base, users, items := buildSolver(t, 30, 20, 4)
	cs := &countingSolver{Solver: base}
	srv, err := New(hidden{cs}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := dispatchBatch(t, srv, []int{2, 999, 5}, 3)
	if out[1].err == nil {
		t.Fatal("poisoned request must fail")
	}
	for _, i := range []int{0, 2} {
		if out[i].err != nil {
			t.Fatalf("healthy request %d failed: %v", i, out[i].err)
		}
	}
	if err := mips.VerifyTopK(users.Row(2), items, out[0].entries, 3, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancellation(t *testing.T) {
	solver, _, _ := buildSolver(t, 30, 20, 4)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Query(ctx, 0, 1); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	solver, _, _ := buildSolver(t, 30, 20, 4)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Query(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // must not panic
	if _, err := srv.Query(context.Background(), 0, 1); err != ErrClosed {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	solver, _, _ := buildSolver(t, 10, 10, 3)
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.cfg.MaxBatch != 64 || srv.cfg.QueueDepth != 1024 {
		t.Fatalf("defaults not applied: %+v", srv.cfg)
	}
}

func BenchmarkServingThroughput(b *testing.B) {
	solver, _, _ := buildSolver(b, 2000, 1000, 16)
	for _, batch := range []int{1, 64} {
		name := "batched"
		if batch == 1 {
			name = "unbatched"
		}
		b.Run(name, func(b *testing.B) {
			srv, err := New(solver, Config{MaxBatch: batch})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(7))
				for pb.Next() {
					if _, err := srv.Query(context.Background(), rng.Intn(2000), 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
