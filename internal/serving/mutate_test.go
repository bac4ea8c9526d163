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
	"optimus/internal/topk"
)

// randMatrix returns a deterministic n×f standard-normal matrix.
func randMatrix(seed int64, n, f int) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(n, f)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestMutateRequiresMutableSolver(t *testing.T) {
	// A facade that deliberately is NOT an ItemMutator.
	solver := &staticSolver{inner: mips.NewNaive()}
	users, items := randMatrix(1, 10, 4), randMatrix(2, 20, 4)
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	err = srv.Mutate(func(mips.ItemMutator) error { return nil })
	if !errors.Is(err, ErrNotMutable) {
		t.Fatalf("Mutate on a non-mutable solver: %v, want ErrNotMutable", err)
	}
	if g := srv.Stats().Generation; g != 0 {
		t.Fatalf("generation advanced to %d without a mutation", g)
	}
}

// staticSolver hides Naive's mutation methods behind a plain Solver facade
// (explicit forwarding, not embedding — promotion would leak the mutator).
type staticSolver struct{ inner *mips.Naive }

func (s *staticSolver) Name() string                 { return "static" }
func (s *staticSolver) Batches() bool                { return false }
func (s *staticSolver) Build(u, i *mat.Matrix) error { return s.inner.Build(u, i) }
func (s *staticSolver) Query(ids []int, k int) ([][]topk.Entry, error) {
	return s.inner.Query(ids, k)
}
func (s *staticSolver) QueryAll(k int) ([][]topk.Entry, error) { return s.inner.QueryAll(k) }
func (s *staticSolver) QueryCtx(ctx context.Context, ids []int, k int, opts mips.QueryOptions) ([][]topk.Entry, error) {
	return s.inner.QueryCtx(ctx, ids, k, opts)
}

func TestMutateSwapsGenerations(t *testing.T) {
	users, items := randMatrix(3, 40, 6), randMatrix(4, 60, 6)
	solver := mips.NewNaive()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	arrivals := randMatrix(5, 3, 6)
	if err := srv.Mutate(func(m mips.ItemMutator) error {
		ids, err := m.AddItems(arrivals)
		if err != nil {
			return err
		}
		if ids[0] != items.Rows() {
			return fmt.Errorf("ids %v", ids)
		}
		return m.RemoveItems([]int{0, 1})
	}); err != nil {
		t.Fatal(err)
	}
	if g := srv.Stats().Generation; g != 1 {
		t.Fatalf("generation = %d after one Mutate, want 1", g)
	}
	// The served results reflect the swapped catalog exactly.
	corpus := mat.RemoveRows(mat.AppendRows(items, arrivals), []int{0, 1})
	res, err := srv.Query(context.Background(), 11, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users.RowSlice(11, 12), corpus, [][]topk.Entry{res}, 5); err != nil {
		t.Fatal(err)
	}

	// A failed mutation surfaces its error and does not advance the
	// generation (the ItemMutator contract left the index untouched).
	if err := srv.Mutate(func(m mips.ItemMutator) error {
		return m.RemoveItems([]int{-1})
	}); err == nil {
		t.Fatal("Mutate swallowed the mutation error")
	}
	if g := srv.Stats().Generation; g != 1 {
		t.Fatalf("generation = %d after failed Mutate, want 1", g)
	}
}

// TestMutateUnderLoad is the drain-handshake test: queries hammer the server
// from many goroutines while the catalog churns; every answer must be exact
// against *some* generation the corpus actually passed through, and nothing
// deadlocks or races (run with -race).
func TestMutateUnderLoad(t *testing.T) {
	const f = 6
	users, items := randMatrix(7, 120, f), randMatrix(8, 90, f)
	solver := mips.NewNaive()
	if err := solver.Build(users, items); err != nil {
		t.Fatal(err)
	}
	srv, err := New(solver, Config{MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Only add items (ids stay stable), so concurrent readers can verify
	// against a prefix-consistent corpus snapshot: every returned item id is
	// valid in the final corpus, and scores match it.
	var cm sync.Mutex
	corpus := items
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for !stop.Load() {
				u := rng.Intn(users.Rows())
				res, err := srv.Query(context.Background(), u, 5)
				if err != nil {
					errs <- err
					return
				}
				cm.Lock()
				snapshot := corpus // grown-only: a superset of what answered
				cm.Unlock()
				for _, e := range res {
					if e.Item < 0 || e.Item >= snapshot.Rows() {
						errs <- fmt.Errorf("item %d outside corpus of %d", e.Item, snapshot.Rows())
						return
					}
					truth := mat.Dot(users.Row(u), snapshot.Row(e.Item))
					if truth != e.Score {
						errs <- fmt.Errorf("user %d item %d score %v, truth %v", u, e.Item, e.Score, truth)
						return
					}
				}
			}
		}(w)
	}

	for round := 0; round < 8; round++ {
		add := randMatrix(int64(900+round), 4, f)
		if err := srv.Mutate(func(m mips.ItemMutator) error {
			cm.Lock()
			defer cm.Unlock()
			if _, err := m.AddItems(add); err != nil {
				return err
			}
			corpus = mat.AppendRows(corpus, add)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g := srv.Stats().Generation; g != 8 {
		t.Fatalf("generation = %d, want 8", g)
	}
}
