package lemp

import (
	"fmt"
	"io"
	"sort"

	"optimus/internal/mips"
	"optimus/internal/persist"
)

// Kind is LEMP's snapshot kind string.
const Kind = "LEMP"

func init() {
	persist.Register(Kind, func() persist.LoadSaver { return New(Config{}) })
}

// Save implements mips.Persister. The snapshot stores the norm-sorted
// arrays, the INCR checkpoints, the bucket size the cuts derive from, and —
// following the FAISS exemplar of persisting the auto-tuned parameters with
// the index — every per-k algorithm tuning measured so far, so a restored
// index starts warm instead of re-timing its buckets. The head is not saved:
// its depth is re-measured and its rows packed on first use after Load. All
// three retrieval routines and the head compute every score in one order, so
// tunings affect speed only; results never depend on them.
func (x *Index) Save(w io.Writer) error {
	if x.sorted == nil {
		return fmt.Errorf("lemp: Save before Build")
	}
	pw, err := persist.NewWriter(w, Kind)
	if err != nil {
		return err
	}
	pw.Section("lemp", func(e *persist.Encoder) {
		e.U64(x.gen)
		e.Int(x.cfg.BucketSize)
		e.Int(x.cp1)
		e.Int(x.cp2)
		e.Matrix(x.users)
		e.Matrix(x.sorted)
		e.Ints(x.ids)
		e.F64s(x.norms)
		e.F64s(x.suffix1)
		e.F64s(x.suffix2)
	})
	pw.Section("tunings", func(e *persist.Encoder) {
		x.mu.Lock()
		defer x.mu.Unlock()
		ks := make([]int, 0, len(x.tunings))
		for k, tn := range x.tunings {
			if tn.algos != nil { // invalidated by a mutation, not yet re-chosen
				ks = append(ks, k)
			}
		}
		sort.Ints(ks) // deterministic bytes for identical state
		e.Int(len(ks))
		for _, k := range ks {
			e.Int(k)
			algos := x.tunings[k].algos
			e.Int(len(algos))
			for _, a := range algos {
				e.U8(uint8(a))
			}
		}
	})
	return pw.Close()
}

// Load implements mips.Persister. BucketSize comes from the snapshot — the
// bucket cuts derive from it, so the loaded index must recut with the saved
// value, not the receiver's. Tuning configuration (TuneSample, Seed,
// Threads) stays with the receiver: it governs future adaptation, not the
// restored structure.
func (x *Index) Load(r io.Reader) error {
	pr, err := persist.NewReader(r, Kind)
	if err != nil {
		return err
	}
	d := pr.Section("lemp")
	gen := d.U64()
	bucketSize := d.Int()
	cp1 := d.Int()
	cp2 := d.Int()
	users := d.Matrix()
	sorted := d.Matrix()
	ids := d.Ints()
	norms := d.F64s()
	suffix1 := d.F64s()
	suffix2 := d.F64s()
	if err := d.Err(); err != nil {
		return err
	}
	d = pr.Section("tunings")
	nTunings := d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	type loadedTuning struct {
		k     int
		algos []Algorithm
	}
	tunings := make([]loadedTuning, 0, nTunings)
	for t := 0; t < nTunings; t++ {
		k := d.Int()
		nAlgos := d.Int()
		if err := d.Err(); err != nil {
			return err
		}
		if nAlgos > d.Remaining() {
			return fmt.Errorf("lemp: snapshot tuning for k=%d claims %d buckets in %d bytes", k, nAlgos, d.Remaining())
		}
		algos := make([]Algorithm, nAlgos)
		for b := range algos {
			a := Algorithm(d.U8())
			if a < 0 || a >= numAlgos {
				return fmt.Errorf("lemp: snapshot tuning algorithm %d out of range", a)
			}
			algos[b] = a
		}
		tunings = append(tunings, loadedTuning{k: k, algos: algos})
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := pr.Close(); err != nil {
		return err
	}

	if err := mips.ValidateInputs(users, sorted); err != nil {
		return err
	}
	n, f := sorted.Rows(), sorted.Cols()
	if err := mips.ValidatePermutation(ids, n); err != nil {
		return fmt.Errorf("lemp: snapshot id map: %w", err)
	}
	if len(norms) != n || len(suffix1) != n || len(suffix2) != n {
		return fmt.Errorf("lemp: snapshot norm arrays cover %d/%d/%d of %d items",
			len(norms), len(suffix1), len(suffix2), n)
	}
	for s := 1; s < n; s++ {
		if norms[s] > norms[s-1] {
			return fmt.Errorf("lemp: snapshot norms not sorted descending at position %d", s)
		}
	}
	if bucketSize < 1 {
		return fmt.Errorf("lemp: snapshot bucket size %d out of range", bucketSize)
	}
	if cp1 < 1 || cp2 <= cp1 || cp2 > f {
		return fmt.Errorf("lemp: snapshot checkpoints (%d, %d) invalid for %d factors", cp1, cp2, f)
	}

	x.users = users
	x.sorted = sorted
	x.ids = ids
	x.norms = norms
	x.cp1, x.cp2 = cp1, cp2
	x.suffix1, x.suffix2 = suffix1, suffix2
	x.cfg.BucketSize = bucketSize
	x.gen = gen
	x.dropTunings()
	x.recutBuckets()
	x.mu.Lock()
	for _, tn := range tunings {
		if len(tn.algos) != len(x.buckets) {
			x.mu.Unlock()
			return fmt.Errorf("lemp: snapshot tuning for k=%d covers %d of %d buckets", tn.k, len(tn.algos), len(x.buckets))
		}
		x.tunings[tn.k] = &tuning{algos: tn.algos}
	}
	x.mu.Unlock()
	x.scanned.Store(0)
	x.buildTime = 0
	return nil
}
