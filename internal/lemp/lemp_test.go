package lemp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"optimus/internal/blas"
	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// testModel builds a small MF-style input with skewed item norms so that
// pruning actually fires.
func testModel(rng *rand.Rand, nUsers, nItems, f int) (*mat.Matrix, *mat.Matrix) {
	users := mat.New(nUsers, f)
	for i := range users.Data() {
		users.Data()[i] = rng.NormFloat64()
	}
	items := mat.New(nItems, f)
	for i := 0; i < nItems; i++ {
		scale := math.Exp(rng.NormFloat64()) // log-normal norm skew
		row := items.Row(i)
		for j := 0; j < f; j++ {
			row[j] = rng.NormFloat64() * scale
		}
	}
	return users, items
}

func TestBuildValidation(t *testing.T) {
	x := New(Config{})
	if err := x.Build(nil, nil); err == nil {
		t.Fatal("expected error for nil inputs")
	}
	if err := x.Build(mat.New(2, 3), mat.New(2, 4)); err == nil {
		t.Fatal("expected error for factor mismatch")
	}
	if err := x.Build(mat.New(0, 3), mat.New(2, 3)); err == nil {
		t.Fatal("expected error for no users")
	}
}

func TestQueryBeforeBuild(t *testing.T) {
	x := New(Config{})
	if _, err := x.Query([]int{0}, 1); err == nil {
		t.Fatal("expected error for query before build")
	}
	if _, err := x.QueryAll(1); err == nil {
		t.Fatal("expected error for query-all before build")
	}
}

func TestBadK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	users, items := testModel(rng, 4, 10, 5)
	x := New(Config{})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := x.QueryAll(0); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := x.QueryAll(11); err == nil {
		t.Fatal("expected error for k > |I|")
	}
}

func TestBadUserID(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	users, items := testModel(rng, 4, 10, 5)
	x := New(Config{})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Query([]int{4}, 1); err == nil {
		t.Fatal("expected error for out-of-range user")
	}
	if _, err := x.Query([]int{-1}, 1); err == nil {
		t.Fatal("expected error for negative user")
	}
}

// TestExactness is the central property: LEMP must return exactly the true
// top-K for every user and every K. INCR is the one routine every bucket runs.
func TestExactness(t *testing.T) {
	t.Run("INCR", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			nUsers := 3 + rng.Intn(10)
			nItems := 5 + rng.Intn(60)
			dim := 2 + rng.Intn(20)
			users, items := testModel(rng, nUsers, nItems, dim)
			x := New(Config{BucketSize: 8})
			if err := x.Build(users, items); err != nil {
				return false
			}
			k := 1 + rng.Intn(min(5, nItems))
			got, err := x.QueryAll(k)
			if err != nil {
				return false
			}
			return mips.VerifyAll(users, items, got, k, 1e-9) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMatchesNaiveSolverIncludingTies(t *testing.T) {
	// Integer-valued vectors force exact ties; LEMP and the naive oracle
	// must resolve them identically (lower item id wins).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nUsers, nItems, dim := 5, 40, 4
		users := mat.New(nUsers, dim)
		items := mat.New(nItems, dim)
		for i := range users.Data() {
			users.Data()[i] = float64(rng.Intn(3))
		}
		for i := range items.Data() {
			items.Data()[i] = float64(rng.Intn(3))
		}
		x := New(Config{BucketSize: 7})
		if err := x.Build(users, items); err != nil {
			return false
		}
		naive := mips.NewNaive()
		if err := naive.Build(users, items); err != nil {
			return false
		}
		k := 1 + rng.Intn(5)
		got, err := x.QueryAll(k)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIncrBoundIsUpperBound(t *testing.T) {
	// The Cauchy–Schwarz checkpoint bound must dominate the true inner
	// product — the invariant that makes INCR pruning safe.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users, items := testModel(rng, 3, 30, 6+rng.Intn(20))
		x := New(Config{})
		if err := x.Build(users, items); err != nil {
			return false
		}
		for u := 0; u < users.Rows(); u++ {
			for s := 0; s < items.Rows(); s++ {
				bound, truth := x.boundCheck(users.Row(u), s)
				if bound < truth-1e-9*(1+math.Abs(truth)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestItemsSortedByNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	users, items := testModel(rng, 5, 100, 8)
	x := New(Config{BucketSize: 16})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < len(x.norms); s++ {
		if x.norms[s] > x.norms[s-1]+1e-12 {
			t.Fatalf("norms not descending at %d: %v > %v", s, x.norms[s], x.norms[s-1])
		}
	}
	for b, bk := range x.buckets {
		if bk.maxNorm != x.norms[bk.lo] {
			t.Fatalf("bucket %d maxNorm mismatch", b)
		}
	}
	if x.Buckets() != (100+15)/16 {
		t.Fatalf("bucket count %d", x.Buckets())
	}
	// id mapping must be a permutation of [0, nItems).
	seen := make([]bool, 100)
	for _, id := range x.ids {
		if seen[id] {
			t.Fatalf("duplicate id %d in sorted order", id)
		}
		seen[id] = true
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users, items := testModel(rng, 150, 300, 12)
	serial := New(Config{Threads: 1})
	parallel := New(Config{Threads: 4})
	if err := serial.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Build(users, items); err != nil {
		t.Fatal(err)
	}
	a, err := serial.QueryAll(10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.QueryAll(10)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if !topk.Equal(a[u], b[u], 0) {
			t.Fatalf("user %d: parallel result differs", u)
		}
	}
}

func TestRebuildReindexes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	users1, items1 := testModel(rng, 10, 30, 6)
	users2, items2 := testModel(rng, 8, 20, 6)
	x := New(Config{})
	if err := x.Build(users1, items1); err != nil {
		t.Fatal(err)
	}
	if _, err := x.QueryAll(3); err != nil {
		t.Fatal(err)
	}
	if err := x.Build(users2, items2); err != nil {
		t.Fatal(err)
	}
	got, err := x.QueryAll(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("rebuild: %d results, want 8", len(got))
	}
	if err := mips.VerifyAll(users2, items2, got, 3, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestZeroNormUser(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	users, items := testModel(rng, 3, 25, 5)
	for j := 0; j < 5; j++ {
		users.Set(1, j, 0)
	}
	x := New(Config{BucketSize: 4})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	got, err := x.Query([]int{1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyTopK(users.Row(1), items, got[0], 4, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTimeRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	users, items := testModel(rng, 20, 50, 6)
	x := New(Config{})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if x.BuildTime() <= 0 {
		t.Fatal("BuildTime must be positive after Build")
	}
}

func TestSolverInterfaceCompliance(t *testing.T) {
	var _ mips.Solver = New(Config{})
	if New(Config{}).Name() != "LEMP" || !New(Config{}).Batches() {
		t.Fatal("identity methods wrong")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// floorsFor builds the mixed floor vector the floor-seeded tests use:
// unseeded, exactly tying the user's k-th (and best) score — the tie-at-floor
// hazard — and above everything.
func floorsFor(want [][]topk.Entry, k int) []float64 {
	floors := make([]float64, len(want))
	for i := range floors {
		switch i % 4 {
		case 0:
			floors[i] = math.Inf(-1)
		case 1:
			floors[i] = want[i][k-1].Score // exact tie at the k-th score
		case 2:
			floors[i] = want[i][0].Score // only ties with the best survive
		default:
			floors[i] = want[i][0].Score + 1 // everything floored away
		}
	}
	return floors
}

func TestFloorsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users, items := testModel(rng, 40, 300, 8)
	x := New(Config{})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	const k = 5
	ids := mips.AllUserIDs(users.Rows())
	want, err := x.Query(ids, k)
	if err != nil {
		t.Fatal(err)
	}
	floors := floorsFor(want, k)
	got, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyFloorPrefix(want, got, floors); err != nil {
		t.Fatal(err)
	}
	// All floors at -Inf must reproduce Query exactly.
	blind := make([]float64, len(ids))
	for i := range blind {
		blind[i] = math.Inf(-1)
	}
	unseeded, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: blind})
	if err != nil {
		t.Fatal(err)
	}
	for u := range want {
		if !topk.Equal(want[u], unseeded[u], 0) {
			t.Fatalf("user %d: -Inf floors diverge from Query", u)
		}
	}
	// Shape and NaN validation.
	if _, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: blind[:1]}); err == nil {
		t.Fatal("floor/user length mismatch must fail")
	}
	if _, err := x.QueryCtx(nil, []int{0}, k, mips.QueryOptions{Floors: []float64{math.NaN()}}); err == nil {
		t.Fatal("NaN floor must fail")
	}
}

// TestFloorsPruneScans pins the point of the floor path: a floor
// above the local k-th score — the two-wave situation, where the head
// shard's k-th score dwarfs a tail shard's local scores — must strictly
// reduce the candidates LEMP scans, and the counter must not depend on the
// thread count. (A floor equal to the local k-th score merely reproduces
// the threshold the blind walk converges to anyway; the cross-shard floor
// is what makes pruning fire early.)
func TestFloorsPruneScans(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	users, items := testModel(rng, 60, 600, 10)
	x := New(Config{})
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
	if blindScanned <= 0 {
		t.Fatal("blind query must scan candidates")
	}
	floors := make([]float64, len(ids))
	for i := range floors {
		floors[i] = want[i][0].Score
	}
	x.ResetScanStats()
	if _, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors}); err != nil {
		t.Fatal(err)
	}
	seededScanned := x.ScanStats().Scanned
	if seededScanned >= blindScanned {
		t.Fatalf("seeded scan count %d, want < blind %d", seededScanned, blindScanned)
	}
	// Determinism across thread counts.
	x.SetThreads(3)
	x.ResetScanStats()
	if _, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors}); err != nil {
		t.Fatal(err)
	}
	if got := x.ScanStats().Scanned; got != seededScanned {
		t.Fatalf("scan count %d at 3 threads, %d at 1 — must be identical", got, seededScanned)
	}
}

// TestFloorsProperty drives random models and floors drawn from the
// unseeded results (forcing exact ties at the floor) through the contract
// verifier.
func TestFloorsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		users, items := testModel(rng, 2+rng.Intn(12), 5+rng.Intn(80), 1+rng.Intn(8))
		x := New(Config{BucketSize: 1 + rng.Intn(20)})
		if x.Build(users, items) != nil {
			return false
		}
		k := 1 + rng.Intn(items.Rows())
		if k > 8 {
			k = 8
		}
		ids := mips.AllUserIDs(users.Rows())
		want, err := x.Query(ids, k)
		if err != nil {
			return false
		}
		floors := make([]float64, len(ids))
		for i := range floors {
			if rng.Intn(3) == 0 {
				floors[i] = math.Inf(-1)
			} else {
				floors[i] = want[i][rng.Intn(k)].Score
			}
		}
		got, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
		if err != nil {
			return false
		}
		return mips.VerifyFloorPrefix(want, got, floors) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports the first difference between two answer sets, comparing
// scores with == (no tolerance).
func sameBits(got, want [][]topk.Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for u := range want {
		if len(got[u]) != len(want[u]) {
			return fmt.Errorf("user %d: %d entries, want %d", u, len(got[u]), len(want[u]))
		}
		for r, e := range want[u] {
			if got[u][r] != e {
				return fmt.Errorf("user %d rank %d: %+v, want %+v", u, r, got[u][r], e)
			}
		}
	}
	return nil
}

// TestRoutinesAgreeToTheBit pins LEMP's one summation order: the walk, with
// the head multiply and without it, returns the same entries with == scores,
// each equal to the multiply's element (blas.DotFrom). So neither a batch's
// make-up nor a floor that keeps a user out of the head changes an answer.
func TestRoutinesAgreeToTheBit(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	users, items := testModel(rng, 60, 900, 50)
	const k = 10
	x := New(Config{BucketSize: 64})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	tn := x.tuningFor(k)
	if tn.headBuckets < 1 || tn.headBuckets > x.Buckets() {
		t.Fatalf("head of %d buckets in %d", tn.headBuckets, x.Buckets())
	}
	withHead, err := x.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	if tn.head == nil {
		t.Fatal("unfloored users did not use the head")
	}
	walked := make([][]topk.Entry, users.Rows())
	scr := &scratch{}
	for u := range walked {
		user := users.Row(u)
		h := topk.New(k)
		x.walk(user, mat.Norm(user), h, 0, scr)
		walked[u] = h.Sorted()
	}
	if err := sameBits(withHead, walked); err != nil {
		t.Fatalf("head vs walk: %v", err)
	}
	for u, row := range walked {
		for _, e := range row {
			if s := blas.DotFrom(0, users.Row(u), items.Row(e.Item)); e.Score != s {
				t.Fatalf("user %d item %d: score %v, multiply's %v", u, e.Item, e.Score, s)
			}
		}
	}
}

// TestHeadPackedOnlyWhenUsed pins the lazy head: a call whose floors prune
// inside the head — a tail shard's users, seeded by the head shard — neither
// packs nor scores it; the first call with an eligible user does.
func TestHeadPackedOnlyWhenUsed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	users, items := testModel(rng, 30, 400, 12)
	const k = 5
	x := New(Config{BucketSize: 32})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	ids := mips.AllUserIDs(users.Rows())
	high := make([]float64, len(ids))
	for i := range high {
		high[i] = math.MaxFloat64
	}
	if _, err := x.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: high}); err != nil {
		t.Fatal(err)
	}
	if x.tunings[k].head != nil || x.ScanStats().Scanned != 0 {
		t.Fatalf("floored-out call packed the head or scanned %d candidates", x.ScanStats().Scanned)
	}
	if _, err := x.Query(ids[:1], k); err != nil {
		t.Fatal(err)
	}
	tn := x.tunings[k]
	if tn.head == nil {
		t.Fatal("an unfloored user did not pack the head")
	}
	if got, want := x.ScanStats().Scanned, int64(x.buckets[tn.headBuckets-1].hi); got < want {
		t.Fatalf("one head user scanned %d candidates, fewer than the %d head items", got, want)
	}
}

// TestMutationRepacksHeadInPlace pins the head's lifecycle under churn: a
// mutation keeps the tuning and its head depth (clamped to the bucket count
// when most items go: answerChunk reads buckets[headBuckets-1]) and only
// marks the head stale, the next query re-packs the same head, and answers
// equal a fresh Build's to the bit.
func TestMutationRepacksHeadInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	users, corpus := testModel(rng, 40, 300, 12)
	const k = 5
	cfg := Config{BucketSize: 32}
	x := New(cfg)
	if err := x.Build(users, corpus); err != nil {
		t.Fatal(err)
	}
	if _, err := x.QueryAll(k); err != nil {
		t.Fatal(err)
	}
	tn := x.tunings[k]
	head, depth := tn.head, tn.headBuckets
	if head == nil {
		t.Fatal("QueryAll did not pack the head")
	}
	check := func(step string, buckets int) {
		t.Helper()
		if x.Buckets() != buckets {
			t.Fatalf("%s: %d buckets, want %d", step, x.Buckets(), buckets)
		}
		if x.tunings[k] != tn || !tn.headStale || tn.headBuckets != min(depth, buckets) {
			t.Fatalf("%s: tuning replaced, head not marked stale, or depth %d re-measured or unclamped (%d)", step, depth, tn.headBuckets)
		}
		if err := mips.VerifyMutation(x, New(cfg), users, corpus, k, 0); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if tn.head != head || tn.headStale {
			t.Fatalf("%s: head replaced or left stale", step)
		}
	}

	_, added := testModel(rng, 1, 5, 12)
	if _, err := x.AddItems(added); err != nil {
		t.Fatal(err)
	}
	corpus = mat.AppendRows(corpus, added)
	check("add 5", 10)

	drop := []int{0, 7, 301}
	if err := x.RemoveItems(drop); err != nil {
		t.Fatal(err)
	}
	corpus = mat.RemoveRows(corpus, drop)
	check("remove 3", 10)

	drop = make([]int, 40)
	for i := range drop {
		drop[i] = 2 * i
	}
	if err := x.RemoveItems(drop); err != nil {
		t.Fatal(err)
	}
	corpus = mat.RemoveRows(corpus, drop)
	check("remove 40", 9)

	if depth < 3 {
		t.Fatalf("head of %d buckets: too shallow for 2 buckets to cut below it", depth)
	}
	drop = mips.IDRange(0, corpus.Rows()-40)
	if err := x.RemoveItems(drop); err != nil {
		t.Fatal(err)
	}
	corpus = mat.RemoveRows(corpus, drop)
	check("remove all but 40", 2)
}

// TestSnapshotLeavesHeadOut pins that the head is a query-time cache: a
// snapshot taken after the head was packed loads to an index that answers
// to the bit, re-measures and re-packs on first use, and saves to the same
// bytes.
func TestSnapshotLeavesHeadOut(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	users, items := testModel(rng, 40, 300, 12)
	const k = 5
	x := New(Config{BucketSize: 32})
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	want, err := x.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := x.Save(&saved); err != nil {
		t.Fatal(err)
	}
	y := New(Config{})
	if err := y.Load(bytes.NewReader(saved.Bytes())); err != nil {
		t.Fatal(err)
	}
	if len(y.tunings) != 0 {
		t.Fatalf("loaded %d per-k tunings, want none", len(y.tunings))
	}
	got, err := y.QueryAll(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(got, want); err != nil {
		t.Fatal(err)
	}
	if y.tunings[k].headBuckets != x.tunings[k].headBuckets {
		t.Fatalf("re-measured head %d buckets, built index %d", y.tunings[k].headBuckets, x.tunings[k].headBuckets)
	}
	var resaved bytes.Buffer
	if err := y.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), saved.Bytes()) {
		t.Fatal("re-saving the loaded index changed the snapshot bytes")
	}
}

// TestConcurrentCallsShareOneHead runs calls from several goroutines on a
// fresh index — the first ones race to measure and pack the head —
// and requires every answer to equal a serial run's.
func TestConcurrentCallsShareOneHead(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	users, items := testModel(rng, 64, 500, 16)
	const k = 6
	cfg := Config{BucketSize: 48, Threads: 2}
	serial := New(cfg)
	if err := serial.Build(users, items); err != nil {
		t.Fatal(err)
	}
	ids := mips.AllUserIDs(users.Rows())
	want, err := serial.Query(ids, k)
	if err != nil {
		t.Fatal(err)
	}
	x := New(cfg)
	if err := x.Build(users, items); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := g * 8
			got, err := x.Query(ids[lo:lo+8], k)
			if err == nil {
				err = sameBits(got, want[lo:lo+8])
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
