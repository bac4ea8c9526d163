package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/topk"
)

func TestMaximusValidation(t *testing.T) {
	m := NewMaximus(MaximusConfig{})
	if err := m.Build(nil, nil); err == nil {
		t.Fatal("expected nil-input error")
	}
	if _, err := m.Query([]int{0}, 1); err == nil {
		t.Fatal("expected query-before-build error")
	}
	if _, err := m.QueryAll(1); err == nil {
		t.Fatal("expected queryall-before-build error")
	}
	rng := rand.New(rand.NewSource(1))
	users, items := testModel(rng, 10, 20, 4)
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryAll(0); err == nil {
		t.Fatal("expected k=0 error")
	}
	if _, err := m.QueryAll(21); err == nil {
		t.Fatal("expected k>|I| error")
	}
	if _, err := m.Query([]int{10}, 1); err == nil {
		t.Fatal("expected user-range error")
	}
}

func TestCBoundKnownCases(t *testing.T) {
	// θb >= θic: the bound degrades to ‖i‖.
	if got := CBound(0, 1, 2, math.Pi); got != 2 {
		t.Fatalf("CBound large thetaB = %v, want 2", got)
	}
	// θb = 0: the bound is the exact centroid rating ‖i‖·cos(θic).
	dot, cnorm, inorm := 1.0, 1.0, 2.0 // cos θic = 1/2, θic = π/3
	want := inorm * 0.5
	if got := CBound(dot, cnorm, inorm, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CBound thetaB=0 = %v, want %v", got, want)
	}
	// Zero item: bound 0. Zero centroid: conservative ‖i‖.
	if CBound(0, 1, 0, 0.5) != 0 {
		t.Fatal("zero item must bound to 0")
	}
	if CBound(0, 0, 3, 0.5) != 3 {
		t.Fatal("zero centroid must fall back to ‖i‖")
	}
	// Out-of-domain cosine from rounding must be clamped, not NaN.
	if got := CBound(2.0000000001, 1, 2, 0.1); math.IsNaN(got) {
		t.Fatal("clamp failed: NaN bound")
	}
}

// TestCBoundIsValidUpperBound is the core Equation 3 property: for every
// user u of cluster c and every item i, CBound(c,i,θb) ≥ uᵀi / ‖u‖.
func TestCBoundIsValidUpperBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nUsers := 10 + rng.Intn(40)
		nItems := 5 + rng.Intn(40)
		dim := 2 + rng.Intn(10)
		users, items := testModel(rng, nUsers, nItems, dim)
		m := NewMaximus(MaximusConfig{Clusters: 3, KMeansIters: 2, Seed: seed})
		if err := m.Build(users, items); err != nil {
			return false
		}
		for u := 0; u < nUsers; u++ {
			unorm := mat.Norm(users.Row(u))
			if unorm == 0 {
				continue
			}
			c := m.clusterOf[u]
			// Find each item's bound via the cluster's sorted list.
			boundOf := make(map[int32]float64, nItems)
			for pos, id := range m.lists[c] {
				boundOf[id] = m.bounds[c][pos]
			}
			for i := 0; i < nItems; i++ {
				truth := mat.Dot(users.Row(u), items.Row(i)) / unorm
				if b := boundOf[int32(i)]; b < truth-1e-9*(1+math.Abs(truth)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaximusListsSortedAndComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	users, items := testModel(rng, 30, 50, 6)
	m := NewMaximus(MaximusConfig{Clusters: 4, Seed: 3})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	for c := range m.lists {
		if len(m.lists[c]) != 50 {
			t.Fatalf("cluster %d list has %d items, want 50", c, len(m.lists[c]))
		}
		seen := make([]bool, 50)
		for pos, id := range m.lists[c] {
			if seen[id] {
				t.Fatalf("cluster %d: duplicate item %d", c, id)
			}
			seen[id] = true
			if pos > 0 && m.bounds[c][pos] > m.bounds[c][pos-1]+1e-12 {
				t.Fatalf("cluster %d: bounds not descending at %d", c, pos)
			}
		}
	}
}

// TestMaximusExactness: MAXIMUS must return the true top-K under every
// configuration knob.
func TestMaximusExactness(t *testing.T) {
	cases := []struct {
		name string
		cfg  MaximusConfig
	}{
		{"defaults", MaximusConfig{}},
		{"no-blocking", MaximusConfig{DisableItemBlocking: true}},
		{"tiny-blocks", MaximusConfig{BlockSize: 3}},
		{"block-below-k", MaximusConfig{BlockSize: 1}},
		{"block-above-items", MaximusConfig{BlockSize: 1000}},
		{"one-cluster", MaximusConfig{Clusters: 1}},
		{"many-clusters", MaximusConfig{Clusters: 16}},
		{"spherical", MaximusConfig{Spherical: true}},
		{"sampled-clustering", MaximusConfig{ClusterSampleFraction: 0.3}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				nUsers := 5 + rng.Intn(40)
				nItems := 5 + rng.Intn(60)
				dim := 2 + rng.Intn(12)
				users, items := testModel(rng, nUsers, nItems, dim)
				cfg := tc.cfg
				cfg.Seed = seed
				m := NewMaximus(cfg)
				if err := m.Build(users, items); err != nil {
					return false
				}
				k := 1 + rng.Intn(minInt(5, nItems))
				got, err := m.QueryAll(k)
				if err != nil {
					return false
				}
				return mips.VerifyAll(users, items, got, k, 1e-9) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestItemBlockingLesionSameAnswers(t *testing.T) {
	// Fig 8's lesion: blocking changes the execution plan, never the answer.
	rng := rand.New(rand.NewSource(4))
	users, items := testModel(rng, 80, 120, 8)
	with := NewMaximus(MaximusConfig{BlockSize: 16, Seed: 9})
	without := NewMaximus(MaximusConfig{DisableItemBlocking: true, Seed: 9})
	if err := with.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if err := without.Build(users, items); err != nil {
		t.Fatal(err)
	}
	a, err := with.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := without.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	naive := mips.NewNaive()
	if err := naive.Build(users, items); err != nil {
		t.Fatal(err)
	}
	want, err := naive.QueryAll(5)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "blocked", want, a)
	requireSameRows(t, "lesion", want, b)
}

// requireSameRows fails unless got equals want entry for entry: the same
// items in the same order, with scores equal to the bit.
func requireSameRows(t *testing.T, label string, want, got [][]topk.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !topk.Equal(got[i], want[i], 0) {
			t.Fatalf("%s: row %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestMaximusBitIdenticalToNaive: every MAXIMUS score is summed in Naive's
// order, so an answer equals Naive's entry for entry, whatever the block
// length, the lesion, the query subset, its chunking, the padding of a
// segment's multiply, whether the cluster's chunks share packed segments,
// the floors or the thread count.
func TestMaximusBitIdenticalToNaive(t *testing.T) {
	// 1200 items make lists of whole panels; 1203 leave three trailing
	// columns in the last segment for the scalar tile.
	for _, nItems := range []int{1200, 1203} {
		t.Run(fmt.Sprint(nItems, "items"), func(t *testing.T) { testMaximusBitIdenticalToNaive(t, nItems) })
	}
}

func testMaximusBitIdenticalToNaive(t *testing.T, nItems int) {
	rng := rand.New(rand.NewSource(31))
	// Four clusters of ~75 users: full queries cut chunks of 64 and a
	// remainder; lists span several 256-entry segments.
	users, items := testModel(rng, 300, nItems, 12)
	naive := mips.NewNaive()
	if err := naive.Build(users, items); err != nil {
		t.Fatal(err)
	}
	all := mips.AllUserIDs(users.Rows())
	subsets := [][]int{
		{7},
		{3, 3, 299, 0},
		{12, 16, 20, 24, 28},         // one cluster: starts shared, floors below drop it under 4
		rng.Perm(users.Rows())[:150], // chunks of every cluster, in arbitrary order
		append(append([]int(nil), all...), all...), // every user twice: several chunks per cluster share segments
	}
	for _, k := range []int{1, 10, 50} {
		want, err := naive.QueryAll(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []MaximusConfig{
			{Clusters: 4, Seed: 2},
			{Clusters: 4, Seed: 2, BlockSize: 3},    // below k = 10 and 50
			{Clusters: 4, Seed: 2, BlockSize: 5000}, // above the item count
			{Clusters: 4, Seed: 2, DisableItemBlocking: true},
			{Clusters: 2, Seed: 2}, // ~150 users a cluster: three chunks share its segments
		} {
			cfg.Threads = 1
			m := NewMaximus(cfg)
			if err := m.Build(users, items); err != nil {
				t.Fatal(err)
			}
			// Five, six and seven users of one cluster enter their first
			// segment together: the GEMM pads the last one to three rows
			// to a full kernel tile.
			var members []int
			for u := range users.Rows() {
				if m.clusterOf[u] == m.clusterOf[0] {
					members = append(members, u)
				}
			}
			cases := append(subsets[:len(subsets):len(subsets)], members[:5], members[:6], members[:7])
			for _, threads := range []int{1, 3} {
				m.SetThreads(threads)
				label := fmt.Sprintf("k=%d clusters=%d block=%d lesion=%v threads=%d", k, cfg.Clusters, cfg.BlockSize, cfg.DisableItemBlocking, threads)
				got, err := m.QueryAll(k)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, label+" full", want, got)
				for si, ids := range cases {
					wantRows := make([][]topk.Entry, len(ids))
					floors := make([]float64, len(ids))
					floored := make([][]topk.Entry, len(ids))
					for i, u := range ids {
						wantRows[i] = want[u]
						// Unfloored, tied with the k-th score, tied with the
						// top score, and above it (an empty row).
						switch i % 4 {
						case 0:
							floors[i] = math.Inf(-1)
						case 1:
							floors[i] = want[u][k-1].Score
						case 2:
							floors[i] = want[u][0].Score
						default:
							floors[i] = want[u][0].Score + 1
						}
						cut := 0
						for cut < k && want[u][cut].Score >= floors[i] {
							cut++
						}
						floored[i] = want[u][:cut]
					}
					sub := fmt.Sprintf("%s subset %d", label, si)
					got, err := m.Query(ids, k)
					if err != nil {
						t.Fatal(err)
					}
					requireSameRows(t, sub, wantRows, got)
					got, err = m.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRows(t, sub+" floors", floored, got)
					board := topk.NewFloorBoard(len(ids))
					board.Fill(floors)
					got, err = m.QueryCtx(context.Background(), ids, k, mips.QueryOptions{Board: board})
					if err != nil {
						t.Fatal(err)
					}
					requireSameRows(t, sub+" board", floored, got)
				}
			}
		}
	}
}

// TestMaximusConcurrentCallsShareNothing: two QueryCtx calls in flight on
// one MAXIMUS, each with clusters whose chunks share packed segments, both
// answer == Naive (run under -race, this is the segments' data-race check).
func TestMaximusConcurrentCallsShareNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	users, items := testModel(rng, 400, 900, 10)
	naive := mips.NewNaive()
	if err := naive.Build(users, items); err != nil {
		t.Fatal(err)
	}
	want, err := naive.QueryAll(10)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMaximus(MaximusConfig{Clusters: 2, Seed: 3, Threads: 2})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	all := mips.AllUserIDs(users.Rows())
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			for range 5 {
				got, err := m.QueryCtx(context.Background(), all, 10, mips.QueryOptions{})
				if err != nil {
					errs <- err
					return
				}
				for u := range want {
					if !topk.Equal(got[u], want[u], 0) {
						errs <- fmt.Errorf("user %d: %+v, want %+v", u, got[u], want[u])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaximusScanCountPinned pins ItemsVisited for every user queried twice
// (so each cluster's several chunks share packed segments): the count is the
// chunk users' positions scored, overshoot included, and the rows the GEMM
// pads a multiply with are not in it. The values are the walk's own; a
// change to them is a change to the scan meter, not to padding or sharing.
func TestMaximusScanCountPinned(t *testing.T) {
	for _, tc := range []struct{ nItems, clusters, k, visited int }{
		{1200, 4, 1, 153600},
		{1200, 4, 10, 153600},
		{1200, 4, 50, 192000},
		{1200, 2, 1, 153600},
		{1200, 2, 10, 153600},
		{1200, 2, 50, 396800},
		{1203, 4, 50, 192000},
		{1203, 2, 50, 396288},
	} {
		rng := rand.New(rand.NewSource(31))
		users, items := testModel(rng, 300, tc.nItems, 12)
		all := mips.AllUserIDs(users.Rows())
		for _, threads := range []int{1, 3} {
			m := NewMaximus(MaximusConfig{Clusters: tc.clusters, Seed: 2, Threads: threads})
			if err := m.Build(users, items); err != nil {
				t.Fatal(err)
			}
			_, st, err := m.QueryStats(append(append([]int(nil), all...), all...), tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if st.ItemsVisited != int64(tc.visited) {
				t.Errorf("%+v threads=%d: ItemsVisited = %d", tc, threads, st.ItemsVisited)
			}
		}
	}
}

func TestMaximusPrunes(t *testing.T) {
	// With tightly clustered users and strongly skewed item norms, w̄ must be
	// well below |I| — otherwise the index is pointless (Equation 4).
	rng := rand.New(rand.NewSource(5))
	nUsers, nItems, dim := 400, 2000, 16
	centers := mat.New(4, dim)
	for i := range centers.Data() {
		centers.Data()[i] = rng.NormFloat64()
	}
	users := mat.New(nUsers, dim)
	for i := 0; i < nUsers; i++ {
		c := centers.Row(i % 4)
		row := users.Row(i)
		for j := 0; j < dim; j++ {
			row[j] = c[j] + rng.NormFloat64()*0.05 // very tight clusters
		}
	}
	items := mat.New(nItems, dim)
	for i := 0; i < nItems; i++ {
		scale := math.Exp(rng.NormFloat64() * 1.5) // strong norm skew
		row := items.Row(i)
		for j := 0; j < dim; j++ {
			row[j] = rng.NormFloat64() * scale
		}
	}
	m := NewMaximus(MaximusConfig{Clusters: 4, DisableItemBlocking: true, Seed: 6})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	wbar, err := m.MeanItemsVisited(1)
	if err != nil {
		t.Fatal(err)
	}
	if wbar > float64(nItems)/2 {
		t.Fatalf("w̄ = %.0f of %d items: pruning ineffective", wbar, nItems)
	}
	// And the results must still be exact.
	got, err := m.QueryAll(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyAll(users, items, got, 1, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestMaximusThetaBCoversMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	users, items := testModel(rng, 60, 30, 5)
	m := NewMaximus(MaximusConfig{Clusters: 5, ClusterSampleFraction: 0.25, Seed: 8})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	theta := m.ThetaB()
	for u, c := range m.ClusterOf() {
		a := mat.Angle(users.Row(u), m.centroids.Row(c))
		if a > theta[c]+1e-12 {
			t.Fatalf("user %d angle %v exceeds θb[%d]=%v (assign-only member not covered)", u, a, c, theta[c])
		}
	}
}

func TestMaximusQuerySubset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	users, items := testModel(rng, 40, 60, 6)
	m := NewMaximus(MaximusConfig{Seed: 1})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	all, err := m.QueryAll(4)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{3, 3, 39, 0}
	got, err := m.Query(ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range ids {
		if !topk.Equal(got[i], all[u], 0) {
			t.Fatalf("subset position %d (user %d) differs", i, u)
		}
	}
}

func TestMaximusParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	users, items := testModel(rng, 120, 150, 8)
	s := NewMaximus(MaximusConfig{Threads: 1, Seed: 2})
	p := NewMaximus(MaximusConfig{Threads: 6, Seed: 2})
	if err := s.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if err := p.Build(users, items); err != nil {
		t.Fatal(err)
	}
	a, err := s.QueryAll(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.QueryAll(7)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		if !topk.Equal(a[u], b[u], 0) {
			t.Fatalf("user %d: thread count changed the answer", u)
		}
	}
}

func TestMaximusTimingsAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	users, items := testModel(rng, 50, 80, 6)
	m := NewMaximus(MaximusConfig{Seed: 3})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	tm := m.Timings()
	if tm.Clustering <= 0 || tm.Construction <= 0 {
		t.Fatalf("stage timings not recorded: %+v", tm)
	}
	if m.BuildTime() != tm.Clustering+tm.Construction {
		t.Fatal("BuildTime must sum the stages")
	}
	_, st, err := m.QueryStats(mips.AllUserIDs(50), 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Traversal <= 0 || st.ItemsVisited <= 0 {
		t.Fatalf("query stats not populated: %+v", st)
	}
	if st.ItemsVisited < 50*3 {
		t.Fatalf("visited %d < users×k", st.ItemsVisited)
	}
}

func TestMaximusInterface(t *testing.T) {
	var _ mips.Solver = NewMaximus(MaximusConfig{})
	m := NewMaximus(MaximusConfig{})
	if m.Name() != "MAXIMUS" || !m.Batches() {
		t.Fatal("identity methods wrong")
	}
}

func TestMaximusDefaultsApplied(t *testing.T) {
	m := NewMaximus(MaximusConfig{})
	if m.cfg.Clusters != 8 || m.cfg.KMeansIters != 3 {
		t.Fatalf("defaults not applied: %+v", m.cfg)
	}
}

// TestMaximusBlockSizing pins B, the one input of the first-segment rule:
// the configured BlockSize, walkSegment when unset, and Save writes it,
// clamped to the item count, into every cluster's block-size slot.
func TestMaximusBlockSizing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	users, items := testModel(rng, 200, 400, 8)
	for _, tc := range []struct {
		cfg  MaximusConfig
		want int
	}{
		{MaximusConfig{}, walkSegment},
		{MaximusConfig{BlockSize: -3}, walkSegment},
		{MaximusConfig{BlockSize: 37}, 37},
		{MaximusConfig{BlockSize: 4096}, 400},
		{MaximusConfig{DisableItemBlocking: true}, walkSegment},
	} {
		tc.cfg.Seed = 4
		m := NewMaximus(tc.cfg)
		if err := m.Build(users, items); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		pr, err := persist.NewReader(&buf, MaximusKind)
		if err != nil {
			t.Fatal(err)
		}
		pr.Section("maximus")
		pr.Section("clusters")
		d := pr.Section("lists")
		for range d.Int() {
			d.I32s()
			d.F64s()
		}
		blocks := d.Ints()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		if len(blocks) != len(m.lists) {
			t.Fatalf("%+v: %d block-size slots for %d clusters", tc.cfg, len(blocks), len(m.lists))
		}
		for c, b := range blocks {
			if b != tc.want {
				t.Fatalf("%+v: cluster %d block-size slot %d, want %d", tc.cfg, c, b, tc.want)
			}
		}
	}
}

func TestMaximusFloorsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	users, items := testModel(rng, 64, 500, 8)
	m := NewMaximus(MaximusConfig{Seed: 4})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	const k = 5
	ids := mips.AllUserIDs(users.Rows())
	want, err := m.Query(ids, k)
	if err != nil {
		t.Fatal(err)
	}
	blindScanned := m.ScanStats().Scanned
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
	got, err := m.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyFloorPrefix(want, got, floors); err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors[:3]}); err == nil {
		t.Fatal("floor/user length mismatch must fail")
	}

	// Cross-shard-style floors must shorten the sorted-bound walks.
	high := make([]float64, len(ids))
	for i := range high {
		high[i] = want[i][0].Score
	}
	m.ResetScanStats()
	if _, err := m.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: high}); err != nil {
		t.Fatal(err)
	}
	seededScanned := m.ScanStats().Scanned
	if seededScanned >= blindScanned {
		t.Fatalf("seeded scan count %d, want < blind %d", seededScanned, blindScanned)
	}
}

func TestBMMFloorsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	users, items := testModel(rng, 40, 300, 8)
	b := NewBMM(BMMConfig{})
	if err := b.Build(users, items); err != nil {
		t.Fatal(err)
	}
	const k = 6
	ids := mips.AllUserIDs(users.Rows())
	want, err := b.Query(ids, k)
	if err != nil {
		t.Fatal(err)
	}
	blindScanned := b.ScanStats().Scanned
	if wantScan := int64(len(ids)) * int64(items.Rows()); blindScanned != wantScan {
		t.Fatalf("BMM scanned %d, want exhaustive %d", blindScanned, wantScan)
	}
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
			floors[i] = want[i][0].Score + 1 // whole row floored: nil result row
		}
	}
	b.ResetScanStats()
	got, err := b.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors})
	if err != nil {
		t.Fatal(err)
	}
	if err := mips.VerifyFloorPrefix(want, got, floors); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if i%4 == 3 && len(got[i]) != 0 {
			t.Fatalf("row %d floored above its best score must be empty, got %+v", i, got[i])
		}
	}
	// BMM scores every pair regardless of floors — the honest accounting.
	if got := b.ScanStats().Scanned; got != blindScanned {
		t.Fatalf("BMM floored scanned %d, want unchanged %d", got, blindScanned)
	}
	if _, err := b.QueryCtx(nil, ids, k, mips.QueryOptions{Floors: floors[:2]}); err == nil {
		t.Fatal("floor/user length mismatch must fail")
	}
}

// TestSortClusterListMatchesSortOracle: the radix sort orders a cluster list
// exactly as a comparison sort on (bound descending, id ascending) does —
// with ties, ±0, negative and infinite bounds, all-equal input, and lists
// short enough to skip the sort.
func TestSortClusterListMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	negZero := math.Copysign(0, -1)
	inputs := [][]float64{
		{},
		{3},
		{negZero, 0, negZero, 0},
		{2, 2, 2, 2, 2, 2},
		{-1, -1e-300, negZero, 0, 1e-300, 1, math.Inf(1), math.Inf(-1), -5, 5},
	}
	pool := []float64{-2.5, -1, negZero, 0, 0.25, 1, 7, math.MaxFloat64, -math.MaxFloat64}
	for _, n := range []int{2, 17, 300, 5000} {
		tied := make([]float64, n)
		spread := make([]float64, n)
		for i := range tied {
			tied[i] = pool[rng.Intn(len(pool))]
			spread[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*4)
		}
		inputs = append(inputs, tied, spread)
	}
	for ii, bound := range inputs {
		want := make([]int32, len(bound))
		for i := range want {
			want[i] = int32(i)
		}
		sort.Slice(want, func(a, b int) bool {
			if bound[want[a]] != bound[want[b]] {
				return bound[want[a]] > bound[want[b]]
			}
			return want[a] < want[b]
		})
		got := make([]int32, len(bound))
		for i := range got {
			got[i] = -1
		}
		sortClusterList(got, bound)
		if !slices.Equal(got, want) {
			t.Fatalf("input %d (n=%d): radix order differs from the sort oracle\ngot  %v\nwant %v", ii, len(bound), got[:min(len(got), 20)], want[:min(len(want), 20)])
		}
	}
}
