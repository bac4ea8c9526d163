package core

import (
	"fmt"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/topk"
)

// Dynamic-user support (§III-E). The paper's deployment story assumes a
// relatively static user set and proposes, for new arrivals, skipping the
// clustering step: assign each new user to the centroid with the smallest L2
// distance. The paper leaves periodic re-clustering as future work; this
// file implements the assignment path — AddUsers — with the bookkeeping
// correctness demands, θb maintenance: a new user can sit at a wider angle
// from its centroid than any existing member, which would invalidate the
// Equation 3 bound. If the new angle exceeds the cluster's θb, the bound is
// recomputed and the cluster's item list re-sorted (lazily, only for
// affected clusters).

// AddUsers appends new user vectors to a built index and returns their
// assigned ids (contiguous, starting at the previous user count). The items
// and latent dimensionality are unchanged; queries for both old and new
// users remain exact.
func (m *Maximus) AddUsers(newUsers *mat.Matrix) ([]int, error) {
	if m.lists == nil {
		return nil, fmt.Errorf("core: AddUsers before Build")
	}
	if err := mips.ValidateAddUsers(newUsers, m.users.Cols()); err != nil {
		return nil, err
	}

	base := m.users.Rows()
	// Grow the user matrix. The backing array is reallocated.
	grown := mat.New(base+newUsers.Rows(), m.users.Cols())
	copy(grown.Data(), m.users.Data())
	copy(grown.Data()[base*m.users.Cols():], newUsers.Data())
	m.users = grown
	m.userNorm = append(m.userNorm, newUsers.RowNorms()...)

	ids := make([]int, newUsers.Rows())
	dirty := make(map[int]bool) // clusters whose θb grew (lists stale)
	for r := 0; r < newUsers.Rows(); r++ {
		u := base + r
		ids[r] = u
		c := m.nearestCentroid(m.users.Row(u))
		m.clusterOf = append(m.clusterOf, c)
		m.members[c] = append(m.members[c], u)
		if a := mat.Angle(m.users.Row(u), m.centroids.Row(c)); a > m.thetaB[c] {
			m.thetaB[c] = a
			dirty[c] = true
		}
	}

	// Re-derive the Equation 3 lists for clusters whose θb widened.
	for c := range dirty {
		m.rebuildClusterList(c)
	}
	return ids, nil
}

// nearestCentroid returns the centroid index minimizing L2 distance — the
// assignment step of k-means, as §III-E prescribes for new users.
func (m *Maximus) nearestCentroid(u []float64) int {
	best, bestD := 0, -1.0
	for c := 0; c < m.centroids.Rows(); c++ {
		cr := m.centroids.Row(c)
		var d float64
		for j, v := range u {
			diff := v - cr[j]
			d += diff * diff
		}
		if bestD < 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// rebuildClusterList recomputes cluster c's Equation 3 bounds and sorted
// item list after its θb grew.
func (m *Maximus) rebuildClusterList(c int) {
	nItems := m.items.Rows()
	cnorm := mat.Norm(m.centroids.Row(c))
	bound := make([]float64, nItems)
	for i := 0; i < nItems; i++ {
		irow := m.items.Row(i)
		bound[i] = CBound(mat.Dot(m.centroids.Row(c), irow), cnorm, mat.Norm(irow), m.thetaB[c])
	}
	ids := m.lists[c]
	sortClusterList(ids, bound)
	for pos, id := range ids {
		m.bounds[c][pos] = bound[id]
	}
}

// Item mutation (the mutable-corpus lifecycle). MAXIMUS's item-side state is
// exactly what AddUsers already maintains per cluster — the Equation 3 bound
// list — so item churn mirrors that bookkeeping:
//
//   - AddItems computes each new item's Equation 3 bound against every
//     centroid and splices (id, bound) into the cluster's bound-sorted list —
//     a binary search plus a positional insert, no re-sort. θb is untouched
//     (item churn cannot widen a user/centroid angle), so existing bounds
//     stay valid verbatim.
//   - RemoveItems filters the lists, renumbering surviving ids under the
//     compaction contract (the renumbering is monotone, so the bound-then-id
//     sort order is preserved without comparisons).
//
// The expensive Build stages — k-means, the |C|×|I| centroid GEMM, the full
// list sorts — are all skipped.

// AddItems implements mips.ItemMutator (see the contract in internal/mips).
// Each cluster absorbs the batch with one merge pass — arrivals sorted by
// (bound desc, id asc), then spliced against the already-sorted list — so a
// batch of m costs O(n+m) element moves per cluster, not the O(m·n) that
// per-item insertion would pay.
func (m *Maximus) AddItems(newItems *mat.Matrix) ([]int, error) {
	if m.lists == nil {
		return nil, fmt.Errorf("core: AddItems before Build")
	}
	if err := mips.ValidateAddItems(newItems, m.items.Cols()); err != nil {
		return nil, err
	}
	base := m.items.Rows()
	add := newItems.Rows()
	m.items = mat.AppendRows(m.items, newItems)
	newNorms := newItems.RowNorms()
	order := make([]int32, add)
	bnds := make([]float64, add)
	for c := range m.lists {
		crow := m.centroids.Row(c)
		cnorm := mat.Norm(crow)
		for r := 0; r < add; r++ {
			bnds[r] = CBound(mat.Dot(crow, newItems.Row(r)), cnorm, newNorms[r], m.thetaB[c])
		}
		sortClusterList(order, bnds)

		// Merge old with sorted arrivals; on a bound tie the old entry goes
		// first (every arrival's id exceeds every existing id) and tied
		// arrivals keep row order — the order sortClusterList produces.
		n := len(m.lists[c])
		list := make([]int32, 0, n+add)
		bounds := make([]float64, 0, n+add)
		i, j := 0, 0
		for range n + add {
			if i < n && (j >= add || m.bounds[c][i] >= bnds[order[j]]) {
				list = append(list, m.lists[c][i])
				bounds = append(bounds, m.bounds[c][i])
				i++
				continue
			}
			list = append(list, int32(base)+order[j])
			bounds = append(bounds, bnds[order[j]])
			j++
		}
		m.lists[c], m.bounds[c] = list, bounds
	}
	m.gen++
	return mips.IDRange(base, add), nil
}

// RemoveItems implements mips.ItemMutator.
func (m *Maximus) RemoveItems(ids []int) error {
	if m.lists == nil {
		return fmt.Errorf("core: RemoveItems before Build")
	}
	n := m.items.Rows()
	sorted, err := mips.ValidateRemoveIDs(ids, n)
	if err != nil {
		return err
	}
	// shift[i] = how far surviving id i moves down; rm marks the dropped.
	rm := make([]bool, n)
	for _, id := range sorted {
		rm[id] = true
	}
	shift := make([]int32, n)
	var removed int32
	for i := 0; i < n; i++ {
		shift[i] = removed
		if rm[i] {
			removed++
		}
	}
	m.items = mat.RemoveRows(m.items, sorted)
	for c := range m.lists {
		list, bounds := m.lists[c], m.bounds[c]
		w := 0
		for pos, id := range list {
			if rm[id] {
				continue
			}
			list[w] = id - shift[id]
			bounds[w] = bounds[pos]
			w++
		}
		m.lists[c], m.bounds[c] = list[:w], bounds[:w]
	}
	m.gen++
	return nil
}

// Generation implements mips.ItemMutator.
func (m *Maximus) Generation() uint64 { return m.gen }

// Users returns the current user count (grows with AddUsers).
func (m *Maximus) Users() int {
	if m.users == nil {
		return 0
	}
	return m.users.Rows()
}

// QueryUser answers a single user's top-k — the point-query entry point a
// serving system uses after AddUsers.
func (m *Maximus) QueryUser(userID, k int) ([]topk.Entry, error) {
	res, err := m.Query([]int{userID}, k)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
