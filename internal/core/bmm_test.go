package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// testModel builds inputs with log-normal item-norm skew and mildly
// clustered users, the regime where both BMM and the indexes are exercised.
func testModel(rng *rand.Rand, nUsers, nItems, f int) (*mat.Matrix, *mat.Matrix) {
	centers := mat.New(4, f)
	for i := range centers.Data() {
		centers.Data()[i] = rng.NormFloat64()
	}
	users := mat.New(nUsers, f)
	for i := 0; i < nUsers; i++ {
		c := centers.Row(i % 4)
		row := users.Row(i)
		for j := 0; j < f; j++ {
			row[j] = c[j] + rng.NormFloat64()*0.3
		}
	}
	items := mat.New(nItems, f)
	for i := 0; i < nItems; i++ {
		scale := math.Exp(rng.NormFloat64())
		row := items.Row(i)
		for j := 0; j < f; j++ {
			row[j] = rng.NormFloat64() * scale
		}
	}
	return users, items
}

func TestBMMValidation(t *testing.T) {
	b := NewBMM(BMMConfig{})
	if err := b.Build(nil, nil); err == nil {
		t.Fatal("expected nil-input error")
	}
	if _, err := b.Query([]int{0}, 1); err == nil {
		t.Fatal("expected query-before-build error")
	}
	if _, err := b.QueryAll(1); err == nil {
		t.Fatal("expected queryall-before-build error")
	}
	rng := rand.New(rand.NewSource(1))
	users, items := testModel(rng, 5, 10, 4)
	if err := b.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := b.QueryAll(0); err == nil {
		t.Fatal("expected k=0 error")
	}
	if _, err := b.QueryAll(11); err == nil {
		t.Fatal("expected k>|I| error")
	}
	if _, err := b.Query([]int{9}, 1); err == nil {
		t.Fatal("expected user-range error")
	}
}

func TestBMMExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nUsers := 2 + rng.Intn(20)
		nItems := 3 + rng.Intn(60)
		dim := 1 + rng.Intn(20)
		users, items := testModel(rng, nUsers, nItems, dim)
		b := NewBMM(BMMConfig{})
		if err := b.Build(users, items); err != nil {
			return false
		}
		k := 1 + rng.Intn(minInt(6, nItems))
		got, err := b.QueryAll(k)
		if err != nil {
			return false
		}
		return mips.VerifyAll(users, items, got, k, 1e-9) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBMMMatchesNaiveTiesExactly(t *testing.T) {
	// BMM computes the same left-to-right dot products as Naive (the GEMM
	// micro-kernel accumulates in index order), so even exact ties must
	// match entry-for-entry.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users := mat.New(6, 3)
		items := mat.New(30, 3)
		for i := range users.Data() {
			users.Data()[i] = float64(rng.Intn(3))
		}
		for i := range items.Data() {
			items.Data()[i] = float64(rng.Intn(3))
		}
		b := NewBMM(BMMConfig{})
		naive := mips.NewNaive()
		if b.Build(users, items) != nil || naive.Build(users, items) != nil {
			return false
		}
		k := 1 + rng.Intn(5)
		got, err := b.QueryAll(k)
		if err != nil {
			return false
		}
		want, err := naive.QueryAll(k)
		if err != nil {
			return false
		}
		for u := range want {
			if !topk.Equal(got[u], want[u], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestBMMChunksBitIdenticalToNaive: BMM multiplies and harvests the query in
// chunks of bmmChunkRows rows, and every score is summed in Naive's order, so
// an answer equals Naive's entry for entry for any query height — one row,
// fewer rows than the kernel's tile, either side of a chunk boundary — at any
// thread count, with and without floors.
func TestBMMChunksBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	users, items := testModel(rng, 200, 203, 12) // 203 items: the kernel's columns and a scalar edge
	naive := mips.NewNaive()
	if err := naive.Build(users, items); err != nil {
		t.Fatal(err)
	}
	const k = 7
	for _, m := range []int{1, 3, 63, 64, 65, 200} {
		ids := rng.Perm(users.Rows())[:m]
		want, err := naive.Query(ids, k)
		if err != nil {
			t.Fatal(err)
		}
		floors := make([]float64, m)
		for i := range floors {
			switch i % 3 {
			case 0:
				floors[i] = math.Inf(-1)
			case 1:
				floors[i] = want[i][k/2].Score
			default:
				floors[i] = want[i][0].Score + 1
			}
		}
		wantFloored, err := naive.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 2, 3} {
			b := NewBMM(BMMConfig{Threads: threads})
			if err := b.Build(users, items); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("m=%d threads=%d", m, threads)
			got, err := b.Query(ids, k)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, label, want, got)
			got, err = b.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, label+" floors", wantFloored, got)
		}
	}
}

// TestBMMConcurrentCallsShareBuffers: BMM recycles its packed items and
// chunk buffers through package-wide pools, so concurrent calls — on one
// solver and on two over different items — must never see each other's
// scores.
func TestBMMConcurrentCallsShareBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	users, items := testModel(rng, 150, 203, 8)
	_, items2 := testModel(rng, 1, 97, 8)
	const k = 4
	var solvers []*BMM
	var wants [][][]topk.Entry
	for _, it := range []*mat.Matrix{items, items2} {
		naive := mips.NewNaive()
		if err := naive.Build(users, it); err != nil {
			t.Fatal(err)
		}
		want, err := naive.QueryAll(k)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBMM(BMMConfig{Threads: 2})
		if err := b.Build(users, it); err != nil {
			t.Fatal(err)
		}
		solvers, wants = append(solvers, b), append(wants, want)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, want := solvers[g%2], wants[g%2]
			for rep := 0; rep < 5; rep++ {
				got, err := b.QueryAll(k)
				if err != nil {
					errs[g] = err
					return
				}
				for u := range want {
					if !topk.Equal(got[u], want[u], 0) {
						errs[g] = fmt.Errorf("goroutine %d: user %d is %+v, want %+v", g, u, got[u], want[u])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// pollLimitCtx is a live context whose Err starts reporting Canceled after
// a fixed number of polls: a cancellation that lands mid-call at a known
// point, with no clock involved.
type pollLimitCtx struct {
	context.Context
	left atomic.Int32
}

func (c *pollLimitCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBMMCancelMidCall: ctx is polled before every column block of every
// chunk, so a cancellation at the (n+1)-th poll returns the ctx error having
// multiplied exactly the first n blocks. 1100 items make blocks of 512, 512
// and 76 columns; 200 users make chunks of 64, 64, 64 and 8 rows.
func TestBMMCancelMidCall(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	users, items := testModel(rng, 200, 1100, 8)
	b := NewBMM(BMMConfig{Threads: 1})
	if err := b.Build(users, items); err != nil {
		t.Fatal(err)
	}
	var covered []int64 // covered[n]: scores in the first n blocks
	for lo := 0; lo < users.Rows(); lo += bmmChunkRows {
		rows := min(lo+bmmChunkRows, users.Rows()) - lo
		for j0 := 0; j0 < items.Rows(); j0 += bmmBlockCols {
			cols := min(j0+bmmBlockCols, items.Rows()) - j0
			prev := int64(0)
			if len(covered) > 0 {
				prev = covered[len(covered)-1]
			}
			covered = append(covered, prev+int64(rows*cols))
		}
	}
	for _, n := range []int{0, 1, 2, 3, 4, 7, len(covered) - 1} {
		b.ResetScanStats()
		ctx := &pollLimitCtx{Context: context.Background()}
		ctx.left.Store(int32(n))
		if _, err := b.QueryCtx(ctx, mips.AllUserIDs(users.Rows()), 5, mips.QueryOptions{}); !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		want := int64(0)
		if n > 0 {
			want = covered[n-1]
		}
		if got := b.ScanStats().Scanned; got != want {
			t.Fatalf("scanned %d after a cancel at poll %d, want %d (%d blocks)", got, n+1, want, n)
		}
	}
}

// TestBMMColumnBlocksBitIdenticalToNaive: a row's heap carries over the
// column blocks of its chunk, so an answer equals Naive's entry for entry
// whether the catalog is narrower than one block, one column past a block
// boundary or past two, with and without floors.
func TestBMMColumnBlocksBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{7, bmmBlockCols + 1, 2*bmmBlockCols + 1} {
		users, items := testModel(rng, 80, n, 9)
		naive := mips.NewNaive()
		if err := naive.Build(users, items); err != nil {
			t.Fatal(err)
		}
		b := NewBMM(BMMConfig{Threads: 2})
		if err := b.Build(users, items); err != nil {
			t.Fatal(err)
		}
		const k = 5
		for _, m := range []int{1, 3, 65} {
			ids := rng.Perm(users.Rows())[:m]
			want, err := naive.Query(ids, k)
			if err != nil {
				t.Fatal(err)
			}
			floors := make([]float64, m)
			for i := range floors {
				switch i % 3 {
				case 0:
					floors[i] = math.Inf(-1)
				case 1:
					floors[i] = want[i][k-1].Score
				default:
					floors[i] = want[i][1].Score
				}
			}
			wantFloored, err := naive.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("n=%d m=%d", n, m)
			got, err := b.Query(ids, k)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, label, want, got)
			got, err = b.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, label+" floors", wantFloored, got)
		}
	}
}

func TestBMMQuerySubsetOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	users, items := testModel(rng, 20, 30, 5)
	b := NewBMM(BMMConfig{})
	if err := b.Build(users, items); err != nil {
		t.Fatal(err)
	}
	all, err := b.QueryAll(3)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{7, 0, 19, 7}
	got, err := b.Query(ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range ids {
		if !topk.Equal(got[i], all[u], 0) {
			t.Fatalf("position %d (user %d): subset result differs", i, u)
		}
	}
}

func TestBMMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	users, items := testModel(rng, 150, 80, 10)
	s := NewBMM(BMMConfig{Threads: 1})
	p := NewBMM(BMMConfig{Threads: 8})
	if err := s.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if err := p.Build(users, items); err != nil {
		t.Fatal(err)
	}
	a, err := s.QueryAll(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.QueryAll(10)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if !topk.Equal(a[u], b[u], 0) {
			t.Fatalf("user %d: thread count changed the answer", u)
		}
	}
}

func TestBMMStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users, items := testModel(rng, 64, 64, 8)
	b := NewBMM(BMMConfig{})
	if err := b.Build(users, items); err != nil {
		t.Fatal(err)
	}
	_, st, err := b.QueryStats(mips.AllUserIDs(64), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.GemmTime <= 0 || st.HarvestTime <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestBMMInterface(t *testing.T) {
	var _ mips.Solver = NewBMM(BMMConfig{})
	if !NewBMM(BMMConfig{}).Batches() {
		t.Fatal("BMM must report batching")
	}
	if NewBMM(BMMConfig{}).Name() != "BMM" {
		t.Fatal("name wrong")
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
