package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

func TestAddUsersValidation(t *testing.T) {
	m := NewMaximus(MaximusConfig{})
	if _, err := m.AddUsers(mat.New(1, 2)); err == nil {
		t.Fatal("expected AddUsers-before-Build error")
	}
	rng := rand.New(rand.NewSource(1))
	users, items := testModel(rng, 10, 20, 4)
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddUsers(nil); err == nil {
		t.Fatal("expected nil error")
	}
	if _, err := m.AddUsers(mat.New(0, 4)); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := m.AddUsers(mat.New(2, 5)); err == nil {
		t.Fatal("expected factor-mismatch error")
	}
}

func TestAddUsersAssignsContiguousIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	users, items := testModel(rng, 25, 30, 5)
	m := NewMaximus(MaximusConfig{Seed: 1})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	extra, _ := testModel(rng, 7, 1, 5)
	ids, err := m.AddUsers(extra)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id != 25+i {
			t.Fatalf("ids = %v, want contiguous from 25", ids)
		}
	}
	if m.Users() != 32 {
		t.Fatalf("Users() = %d, want 32", m.Users())
	}
}

// TestAddUsersExactness is the §III-E correctness property: after any
// sequence of AddUsers calls, queries for both original and new users return
// the exact top-K — the θb maintenance and list re-sorting must keep
// Equation 3 valid for everyone.
func TestAddUsersExactness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nUsers := 10 + rng.Intn(30)
		nItems := 10 + rng.Intn(50)
		dim := 2 + rng.Intn(8)
		users, items := testModel(rng, nUsers, nItems, dim)
		m := NewMaximus(MaximusConfig{Clusters: 3, Seed: seed})
		if err := m.Build(users, items); err != nil {
			return false
		}
		// Two waves of arrivals, deliberately drawn from a different
		// distribution than the originals so θb must widen.
		all := users.Clone()
		for wave := 0; wave < 2; wave++ {
			extra := mat.New(3+rng.Intn(6), dim)
			for i := range extra.Data() {
				extra.Data()[i] = rng.NormFloat64() * 3
			}
			if _, err := m.AddUsers(extra); err != nil {
				return false
			}
			grown := mat.New(all.Rows()+extra.Rows(), dim)
			copy(grown.Data(), all.Data())
			copy(grown.Data()[all.Rows()*dim:], extra.Data())
			all = grown
		}
		k := 1 + rng.Intn(minInt(5, nItems))
		res, err := m.QueryAll(k)
		if err != nil {
			return false
		}
		return mips.VerifyAll(all, items, res, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddUsersThetaBCoversArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	users, items := testModel(rng, 40, 20, 4)
	m := NewMaximus(MaximusConfig{Clusters: 2, Seed: 2})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), m.ThetaB()...)
	// Adversarial arrivals: the negations of both centroids. Whatever
	// cluster each lands in, it sits at a wide angle from its centroid, so
	// θb must grow somewhere and must cover every member afterwards.
	outliers := mat.New(2, 4)
	for c := 0; c < 2; c++ {
		for j := 0; j < 4; j++ {
			outliers.Set(c, j, -100*m.centroids.At(c, j))
		}
	}
	ids, err := m.AddUsers(outliers)
	if err != nil {
		t.Fatal(err)
	}
	widened := false
	for c := range before {
		if m.ThetaB()[c] > before[c] {
			widened = true
		}
	}
	if !widened {
		t.Fatalf("no θb widened for anti-centroid arrivals: %v -> %v", before, m.ThetaB())
	}
	// Coverage invariant: Equation 3 must hold for every member, old or new.
	for u, c := range m.ClusterOf() {
		if a := mat.Angle(m.users.Row(u), m.centroids.Row(c)); a > m.ThetaB()[c]+1e-12 {
			t.Fatalf("user %d angle %v exceeds θb[%d] = %v", u, a, c, m.ThetaB()[c])
		}
	}
	// And the outliers' own queries must be exact.
	for _, id := range ids {
		res, err := m.QueryUser(id, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := mips.VerifyAll(m.users.RowSlice(id, id+1), items, [][]topk.Entry{res}, 3); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAddUsersMatchesRebuild(t *testing.T) {
	// Incremental maintenance must answer like an index built from scratch
	// over the union (scores identical; clustering may differ, answers not).
	rng := rand.New(rand.NewSource(4))
	users, items := testModel(rng, 30, 40, 6)
	extra, _ := testModel(rand.New(rand.NewSource(5)), 10, 1, 6)

	incremental := NewMaximus(MaximusConfig{Seed: 3})
	if err := incremental.Build(users, items); err != nil {
		t.Fatal(err)
	}
	if _, err := incremental.AddUsers(extra); err != nil {
		t.Fatal(err)
	}

	union := mat.New(40, 6)
	copy(union.Data(), users.Data())
	copy(union.Data()[30*6:], extra.Data())
	fresh := NewMaximus(MaximusConfig{Seed: 3})
	if err := fresh.Build(union, items); err != nil {
		t.Fatal(err)
	}

	a, err := incremental.QueryAll(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.QueryAll(4)
	if err != nil {
		t.Fatal(err)
	}
	for u := range a {
		for r := range a[u] {
			da, db := a[u][r].Score, b[u][r].Score
			if d := da - db; d > 1e-9 || d < -1e-9 {
				t.Fatalf("user %d rank %d: incremental %v vs rebuild %v", u, r, da, db)
			}
		}
	}
}

func TestQueryUserMatchesQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	users, items := testModel(rng, 20, 25, 5)
	m := NewMaximus(MaximusConfig{Seed: 4})
	if err := m.Build(users, items); err != nil {
		t.Fatal(err)
	}
	single, err := m.QueryUser(11, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.Query([]int{11}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r := range single {
		if single[r] != batch[0][r] {
			t.Fatalf("QueryUser differs from Query at rank %d", r)
		}
	}
	if _, err := m.QueryUser(99, 3); err == nil {
		t.Fatal("expected range error")
	}
	if NewMaximus(MaximusConfig{}).Users() != 0 {
		t.Fatal("Users() before Build must be 0")
	}
}
