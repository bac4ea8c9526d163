package mips

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
	"optimus/internal/topk"
)

func randModel(rng *rand.Rand, nUsers, nItems, f int) (*mat.Matrix, *mat.Matrix) {
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

func TestValidateInputs(t *testing.T) {
	users, items := randModel(rand.New(rand.NewSource(1)), 3, 4, 2)
	if err := ValidateInputs(users, items); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		u, i *mat.Matrix
	}{
		{nil, items},
		{users, nil},
		{mat.New(3, 5), items},         // factor mismatch
		{mat.New(0, 2), items},         // no users
		{users, mat.New(0, 2)},         // no items
		{mat.New(3, 0), mat.New(4, 0)}, // zero factors
	}
	for i, c := range cases {
		if err := ValidateInputs(c.u, c.i); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestValidateK(t *testing.T) {
	if err := ValidateK(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := ValidateK(10, 10); err != nil {
		t.Fatal(err)
	}
	if err := ValidateK(0, 10); err == nil {
		t.Fatal("expected k=0 error")
	}
	if err := ValidateK(11, 10); err == nil {
		t.Fatal("expected k>n error")
	}
}

func TestNaiveLifecycle(t *testing.T) {
	n := NewNaive()
	if n.Name() != "Naive" || n.Batches() {
		t.Fatal("identity methods wrong")
	}
	if _, err := n.Query([]int{0}, 1); err == nil {
		t.Fatal("expected query-before-build error")
	}
	if _, err := n.QueryAll(1); err == nil {
		t.Fatal("expected queryall-before-build error")
	}
	users, items := randModel(rand.New(rand.NewSource(2)), 4, 6, 3)
	if err := n.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Query([]int{4}, 1); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := n.Query([]int{-1}, 1); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := n.QueryAll(7); err == nil {
		t.Fatal("expected k error")
	}
	res, err := n.QueryAll(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAll(users, items, res, 2, 1e-12); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveSelfConsistent(t *testing.T) {
	// The oracle must satisfy its own verifier.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users, items := randModel(rng, 2+rng.Intn(8), 2+rng.Intn(20), 1+rng.Intn(6))
		n := NewNaive()
		if n.Build(users, items) != nil {
			return false
		}
		k := 1 + rng.Intn(items.Rows())
		res, err := n.QueryAll(k)
		if err != nil {
			return false
		}
		return VerifyAll(users, items, res, k, 1e-12) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyTopKCatchesViolations(t *testing.T) {
	users, items := randModel(rand.New(rand.NewSource(3)), 1, 5, 2)
	n := NewNaive()
	if err := n.Build(users, items); err != nil {
		t.Fatal(err)
	}
	res, err := n.QueryAll(3)
	if err != nil {
		t.Fatal(err)
	}
	good := res[0]
	u := users.Row(0)

	if err := VerifyTopK(u, items, good, 3, 1e-12); err != nil {
		t.Fatal("good result rejected:", err)
	}
	// Wrong length.
	if err := VerifyTopK(u, items, good[:2], 3, 1e-12); err == nil {
		t.Fatal("short result accepted")
	}
	// Fabricated score.
	bad := append([]topk.Entry(nil), good...)
	bad[0].Score += 1
	if err := VerifyTopK(u, items, bad, 3, 1e-12); err == nil {
		t.Fatal("fabricated score accepted")
	}
	// Out-of-range item.
	bad = append([]topk.Entry(nil), good...)
	bad[1].Item = 99
	if err := VerifyTopK(u, items, bad, 3, 1e-12); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	// Duplicate item.
	bad = append([]topk.Entry(nil), good...)
	bad[1] = bad[0]
	if err := VerifyTopK(u, items, bad, 3, 1e-12); err == nil {
		t.Fatal("duplicate item accepted")
	}
	// Wrong order.
	bad = []topk.Entry{good[2], good[1], good[0]}
	if good[0].Score > good[2].Score { // only meaningful without a 3-way tie
		if err := VerifyTopK(u, items, bad, 3, 1e-12); err == nil {
			t.Fatal("mis-ordered result accepted")
		}
	}
	// Missing a better item: replace the top entry with the true 4th best.
	all, err := n.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	if all[0][3].Score < good[2].Score { // strictly worse replacement exists
		bad = []topk.Entry{good[1], good[2], all[0][3]}
		if err := VerifyTopK(u, items, bad, 3, 1e-12); err == nil {
			t.Fatal("result missing the best item accepted")
		}
	}
}

func TestVerifyAllLengthMismatch(t *testing.T) {
	users, items := randModel(rand.New(rand.NewSource(4)), 3, 4, 2)
	if err := VerifyAll(users, items, make([][]topk.Entry, 2), 1, 1e-9); err == nil {
		t.Fatal("result-count mismatch accepted")
	}
}

func TestAllUserIDs(t *testing.T) {
	ids := AllUserIDs(4)
	for i, v := range ids {
		if v != i {
			t.Fatalf("AllUserIDs = %v", ids)
		}
	}
	if len(AllUserIDs(0)) != 0 {
		t.Fatal("AllUserIDs(0) should be empty")
	}
}

func TestValidateQueryOptions(t *testing.T) {
	ids := []int{0, 1, 2}
	inf := math.Inf(-1)
	cases := []struct {
		name string
		opts QueryOptions
		ok   bool
	}{
		{"plain", QueryOptions{}, true},
		{"floors", QueryOptions{Floors: []float64{1, 2, 3}}, true},
		{"-Inf floors are the unseeded case", QueryOptions{Floors: []float64{inf, inf, inf}}, true},
		{"floor length mismatch", QueryOptions{Floors: []float64{1, 2}}, false},
		{"NaN floor", QueryOptions{Floors: []float64{1, math.NaN(), 3}}, false},
		{"board", QueryOptions{Board: topk.NewFloorBoard(3)}, true},
		{"board length mismatch", QueryOptions{Board: topk.NewFloorBoard(2)}, false},
		{"floors and board", QueryOptions{Floors: []float64{1, 2, 3}, Board: topk.NewFloorBoard(3)}, false},
	}
	for _, tc := range cases {
		if err := ValidateQueryOptions(ids, tc.opts); (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}

func TestVerifyFloorPrefix(t *testing.T) {
	unseeded := [][]topk.Entry{{{Item: 1, Score: 5}, {Item: 2, Score: 3}, {Item: 3, Score: 1}}}
	// Exact prefix at the floor: ok (tie at floor retained).
	if err := VerifyFloorPrefix(unseeded, [][]topk.Entry{{{Item: 1, Score: 5}, {Item: 2, Score: 3}}}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	// Longer-than-required prefix: allowed (below-floor entries MAY be kept).
	if err := VerifyFloorPrefix(unseeded, unseeded, []float64{3}); err != nil {
		t.Fatal(err)
	}
	// Dropping an at-floor entry: contract violation.
	if err := VerifyFloorPrefix(unseeded, [][]topk.Entry{{{Item: 1, Score: 5}}}, []float64{3}); err == nil {
		t.Fatal("dropping a tie at the floor must fail")
	}
	// Wrong entry inside the prefix: violation.
	if err := VerifyFloorPrefix(unseeded, [][]topk.Entry{{{Item: 9, Score: 5}}}, []float64{5}); err == nil {
		t.Fatal("diverging prefix entry must fail")
	}
	// More entries than the reference: violation.
	long := [][]topk.Entry{{{Item: 1, Score: 5}, {Item: 2, Score: 3}, {Item: 3, Score: 1}, {Item: 4, Score: 0}}}
	if err := VerifyFloorPrefix(unseeded, long, []float64{3}); err == nil {
		t.Fatal("overlong seeded row must fail")
	}
}

func TestScanStatsAdd(t *testing.T) {
	var s ScanStats
	s.Add(ScanStats{Scanned: 3})
	s.Add(ScanStats{Scanned: 4})
	if s.Scanned != 7 {
		t.Fatalf("Scanned = %d, want 7", s.Scanned)
	}
}
