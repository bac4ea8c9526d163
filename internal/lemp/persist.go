package lemp

import (
	"fmt"
	"io"

	"optimus/internal/mips"
	"optimus/internal/persist"
)

// Kind is LEMP's snapshot kind string.
const Kind = "LEMP"

func init() {
	persist.Register(Kind, func() persist.LoadSaver { return New(Config{}) })
}

// Save implements mips.Persister. The snapshot stores the norm-sorted
// arrays, the INCR checkpoints and the bucket size the cuts derive from. The
// head is not saved: its depth is re-measured and its rows packed on first
// use after Load, and since it scores in the walk's order, results never
// depend on it.
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
	return pw.Close()
}

// Load implements mips.Persister. BucketSize comes from the snapshot — the
// bucket cuts derive from it, so the loaded index must recut with the saved
// value, not the receiver's. Seed and Threads stay with the receiver: they
// govern future head measurement and querying, not the restored structure.
// A "tunings" section that older writers appended (per-bucket routine
// choices) is left unread; persist.Reader.Close ignores trailing sections.
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
	x.scanned.Store(0)
	x.buildTime = 0
	return nil
}
