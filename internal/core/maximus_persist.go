package core

import (
	"fmt"
	"io"

	"optimus/internal/mips"
	"optimus/internal/persist"
)

// MaximusKind is MAXIMUS's snapshot kind string.
const MaximusKind = "MAXIMUS"

func init() {
	persist.Register(MaximusKind, func() persist.LoadSaver { return NewMaximus(MaximusConfig{}) })
}

// Save implements mips.Persister. The snapshot stores what sampling
// produced — the clustering and the Equation 3 sorted lists — so Load
// restores the paper's §III index without re-running k-means. Cheap
// deterministic projections of that state (user norms, member lists) are
// re-derived at Load instead of stored. The lists section ends with one
// block-size slot per cluster, which holds B clamped to the item count.
func (m *Maximus) Save(w io.Writer) error {
	if m.users == nil {
		return fmt.Errorf("core: MAXIMUS Save before Build")
	}
	pw, err := persist.NewWriter(w, MaximusKind)
	if err != nil {
		return err
	}
	pw.Section("maximus", func(e *persist.Encoder) {
		e.U64(m.gen)
		e.Matrix(m.users)
		e.Matrix(m.items)
	})
	pw.Section("clusters", func(e *persist.Encoder) {
		e.Matrix(m.centroids)
		e.Ints(m.clusterOf)
		e.F64s(m.thetaB)
	})
	pw.Section("lists", func(e *persist.Encoder) {
		e.Int(len(m.lists))
		for c := range m.lists {
			e.I32s(m.lists[c])
			e.F64s(m.bounds[c])
		}
		blocks := make([]int, len(m.lists))
		for c := range blocks {
			blocks[c] = min(m.cfg.BlockSize, m.items.Rows())
		}
		e.Ints(blocks)
	})
	return pw.Close()
}

// Load implements mips.Persister. The receiver keeps its runtime config
// (Threads, and B, which shapes the walk's segments but no answer); the
// index itself is implied by the stored structure, so a loaded index
// answers exactly like the saved one regardless of the receiver's
// MaximusConfig. The block-size slot is range-checked and otherwise unused.
func (m *Maximus) Load(r io.Reader) error {
	pr, err := persist.NewReader(r, MaximusKind)
	if err != nil {
		return err
	}
	d := pr.Section("maximus")
	gen := d.U64()
	users := d.Matrix()
	items := d.Matrix()
	if err := d.Err(); err != nil {
		return err
	}
	d = pr.Section("clusters")
	centroids := d.Matrix()
	clusterOf := d.Ints()
	thetaB := d.F64s()
	if err := d.Err(); err != nil {
		return err
	}
	d = pr.Section("lists")
	nLists := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if nLists > d.Remaining()/8 {
		return fmt.Errorf("core: MAXIMUS snapshot claims %d lists in %d bytes", nLists, d.Remaining())
	}
	lists := make([][]int32, nLists)
	bounds := make([][]float64, nLists)
	for c := 0; c < nLists; c++ {
		lists[c] = d.I32s()
		bounds[c] = d.F64s()
	}
	blockSizes := d.Ints()
	if err := d.Err(); err != nil {
		return err
	}
	if err := pr.Close(); err != nil {
		return err
	}

	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	nUsers, nItems := users.Rows(), items.Rows()
	nClusters := centroids.Rows()
	if centroids.Cols() != users.Cols() {
		return fmt.Errorf("core: MAXIMUS snapshot centroids have %d factors, users %d", centroids.Cols(), users.Cols())
	}
	if len(clusterOf) != nUsers {
		return fmt.Errorf("core: MAXIMUS snapshot assigns %d users, corpus has %d", len(clusterOf), nUsers)
	}
	if len(thetaB) != nClusters || nLists != nClusters || len(blockSizes) != nClusters {
		return fmt.Errorf("core: MAXIMUS snapshot cluster arrays disagree (%d centroids, %d thetaB, %d lists, %d blocks)",
			nClusters, len(thetaB), nLists, len(blockSizes))
	}
	for _, c := range clusterOf {
		if c < 0 || c >= nClusters {
			return fmt.Errorf("core: MAXIMUS snapshot cluster id %d out of range [0,%d)", c, nClusters)
		}
	}
	for c := 0; c < nClusters; c++ {
		if len(lists[c]) != nItems || len(bounds[c]) != nItems {
			return fmt.Errorf("core: MAXIMUS snapshot cluster %d list covers %d/%d of %d items",
				c, len(lists[c]), len(bounds[c]), nItems)
		}
		seen := make([]bool, nItems)
		for _, id := range lists[c] {
			if id < 0 || int(id) >= nItems || seen[id] {
				return fmt.Errorf("core: MAXIMUS snapshot cluster %d list is not an item permutation", c)
			}
			seen[id] = true
		}
		if blockSizes[c] < 0 || blockSizes[c] > nItems {
			return fmt.Errorf("core: MAXIMUS snapshot cluster %d block size %d out of range", c, blockSizes[c])
		}
	}

	m.users, m.items, m.gen = users, items, gen
	m.userNorm = users.RowNorms()
	m.centroids = centroids
	m.clusterOf = clusterOf
	m.thetaB = thetaB
	m.lists = lists
	m.bounds = bounds

	m.members = make([][]int, nClusters)
	for u, c := range clusterOf {
		m.members[c] = append(m.members[c], u)
	}
	m.timings = MaximusTimings{}
	m.scanned.Store(0)
	return nil
}
