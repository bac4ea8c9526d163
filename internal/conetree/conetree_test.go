package conetree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
	"optimus/internal/mips"
)

func testModel(rng *rand.Rand, nUsers, nItems, f int) (*mat.Matrix, *mat.Matrix) {
	users := mat.New(nUsers, f)
	items := mat.New(nItems, f)
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	for i := 0; i < nItems; i++ {
		scale := math.Exp(rng.NormFloat64())
		row := items.Row(i)
		for j := 0; j < f; j++ {
			row[j] = rng.NormFloat64() * scale
		}
	}
	return users, items
}

func TestLifecycleValidation(t *testing.T) {
	x := New(Config{})
	if err := x.Build(nil, nil); err == nil {
		t.Fatal("expected nil-input error")
	}
	if _, err := x.Query([]int{0}, 1); err == nil {
		t.Fatal("expected query-before-build error")
	}
	if _, err := x.QueryAll(1); err == nil {
		t.Fatal("expected queryall-before-build error")
	}
	rng := rand.New(rand.NewSource(1))
	users, items := testModel(rng, 5, 20, 4)
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := x.QueryAll(0); err == nil {
		t.Fatal("expected k=0 error")
	}
	if _, err := x.QueryAll(21); err == nil {
		t.Fatal("expected k>|I| error")
	}
	if _, err := x.Query([]int{5}, 1); err == nil {
		t.Fatal("expected user-range error")
	}
	var _ mips.Solver = x
	if x.Name() != "ConeTree" || x.Batches() {
		t.Fatal("identity methods wrong")
	}
	if x.BuildTime() <= 0 {
		t.Fatal("BuildTime not recorded")
	}
}

func TestTreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	users, items := testModel(rng, 5, 300, 6)
	x := New(Config{LeafSize: 16})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if x.Depth() < 2 {
		t.Fatalf("300 items with leaf size 16 should give depth >= 2, got %d", x.Depth())
	}
	if l := x.Leaves(); l < 300/16 {
		t.Fatalf("too few leaves: %d", l)
	}
	// The reordering must remain a permutation of the items.
	seen := make([]bool, 300)
	for _, id := range x.ids {
		if id < 0 || id >= 300 || seen[id] {
			t.Fatalf("ids are not a permutation (id %d)", id)
		}
		seen[id] = true
	}
}

// TestNodeBoundIsUpperBound: at every tree level, the node bound dominates
// the true inner product of every item under that node.
func TestNodeBoundIsUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users, items := testModel(rng, 4, 20+rng.Intn(80), 2+rng.Intn(8))
		x := New(Config{LeafSize: 8})
		if err := x.Build(users, items); err != nil {
			return false
		}
		for u := 0; u < users.Rows(); u++ {
			urow := users.Row(u)
			for s := 0; s < items.Rows(); s++ {
				bounds, truth := x.NodeBoundForTest(urow, s)
				for _, b := range bounds {
					if b < truth-1e-9*(1+math.Abs(truth)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestExactness: the branch-and-bound search returns the true top-K.
func TestExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nUsers := 3 + rng.Intn(8)
		nItems := 5 + rng.Intn(100)
		dim := 2 + rng.Intn(12)
		users, items := testModel(rng, nUsers, nItems, dim)
		x := New(Config{LeafSize: 1 + rng.Intn(16)})
		if err := x.Build(users, items); err != nil {
			return false
		}
		k := 1 + rng.Intn(minInt(6, nItems))
		got, err := x.QueryAll(k)
		if err != nil {
			return false
		}
		return mips.VerifyAll(users, items, got, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIdenticalDirectionsDegenerate(t *testing.T) {
	// All items parallel: every split is degenerate and must still
	// terminate, and the search must still be exact.
	users := mat.New(3, 4)
	items := mat.New(50, 4)
	rng := rand.New(rand.NewSource(3))
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	for i := 0; i < 50; i++ {
		scale := 1 + float64(i)
		items.Set(i, 0, scale)
		items.Set(i, 1, 2*scale)
	}
	x := New(Config{LeafSize: 4})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	got, err := x.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, items, got, 5); err != nil {
		t.Fatal(err)
	}
}

func TestZeroVectors(t *testing.T) {
	users := mat.New(2, 3)
	items := mat.New(10, 3)
	users.Set(0, 0, 1)
	for i := 5; i < 10; i++ {
		items.Set(i, 0, float64(i))
	}
	x := New(Config{LeafSize: 2})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	got, err := x.QueryAll(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, items, got, 3); err != nil {
		t.Fatal(err)
	}
}

func TestPrunesOnSkewedInput(t *testing.T) {
	// On heavy norm skew the search must not visit every leaf: compare
	// against an exhaustive scan via the work proxy of tree depth... the
	// public signal we have is runtime-free: verify exactness and that the
	// tree bound at the root is loose enough to admit the winner but the
	// search result equals the oracle. The real pruning measurement lives
	// in the ablation bench; here we pin exactness at scale.
	rng := rand.New(rand.NewSource(4))
	users, items := testModel(rng, 50, 2000, 8)
	x := New(Config{LeafSize: 32})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	got, err := x.QueryAll(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, items, got, 3); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users, items := testModel(rng, 80, 200, 6)
	s := New(Config{Threads: 1})
	p := New(Config{Threads: 4})
	if err := s.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if err := p.Build(users, items); err != nil {
		t.Fatal(err)
	}
	a, err := s.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if !slices.Equal(a[u], b[u]) {
			t.Fatalf("user %d: thread count changed the answer", u)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFloorsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	users, items := testModel(rng, 30, 400, 8)
	x := New(Config{LeafSize: 8})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	const k = 5
	ids := mips.AllUserIDs(users.Rows())
	want, err := x.Query(ids, k)
	if err != nil {
		t.Fatal(err)
	}
	blindScanned := x.ScanStats().Scanned
	floors := make([]float64, len(ids))
	for i := range floors {
		switch i % 4 {
		case 0:
			floors[i] = math.Inf(-1)
		case 1:
			floors[i] = want[i][k-1].Score // exact tie at the k-th score
		case 2:
			floors[i] = want[i][0].Score
		default:
			floors[i] = want[i][0].Score + 1
		}
	}
	got, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyFloorPrefix(want, got, floors); err != nil {
		t.Fatal(err)
	}
	if _, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors[:1]}); err == nil {
		t.Fatal("floor/user length mismatch must fail")
	}

	// Cross-shard-style floors (above the local k-th) must cut subtree
	// visits, deterministically across thread counts.
	high := make([]float64, len(ids))
	for i := range high {
		high[i] = want[i][0].Score
	}
	x.ResetScanStats()
	if _, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: high}); err != nil {
		t.Fatal(err)
	}
	seededScanned := x.ScanStats().Scanned
	if seededScanned >= blindScanned {
		t.Fatalf("seeded scan count %d, want < blind %d", seededScanned, blindScanned)
	}
	x.SetThreads(3)
	x.ResetScanStats()
	if _, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: high}); err != nil {
		t.Fatal(err)
	}
	if got := x.ScanStats().Scanned; got != seededScanned {
		t.Fatalf("scan count %d at 3 threads, %d at 1 — must be identical", got, seededScanned)
	}
}
