package core

import (
	"fmt"
	"io"

	"optimus/internal/mips"
	"optimus/internal/persist"
)

// BMMKind is BMM's snapshot kind string.
const BMMKind = "BMM"

func init() {
	persist.Register(BMMKind, func() persist.LoadSaver { return NewBMM(BMMConfig{}) })
}

// Save implements mips.Persister. BMM's entire index is its two matrices
// plus the mutation stamp; runtime knobs (Threads) stay with the
// receiver — they shape execution, not results.
func (b *BMM) Save(w io.Writer) error {
	if b.users == nil {
		return fmt.Errorf("core: BMM Save before Build")
	}
	pw, err := persist.NewWriter(w, BMMKind)
	if err != nil {
		return err
	}
	pw.Section("bmm", func(e *persist.Encoder) {
		e.U64(b.gen)
		e.Matrix(b.users)
		e.Matrix(b.items)
	})
	return pw.Close()
}

// Load implements mips.Persister. The receiver's config is kept; the scan
// counter resets.
func (b *BMM) Load(r io.Reader) error {
	pr, err := persist.NewReader(r, BMMKind)
	if err != nil {
		return err
	}
	d := pr.Section("bmm")
	gen := d.U64()
	users := d.Matrix()
	items := d.Matrix()
	if err := d.Err(); err != nil {
		return err
	}
	if err := pr.Close(); err != nil {
		return err
	}
	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	b.users, b.items, b.gen = users, items, gen
	b.scanned.Store(0)
	return nil
}
