package mips

import (
	"bytes"
	"fmt"
	"io"

	"optimus/internal/persist"
)

// Persister is the optional Solver interface for versioned snapshots. Save
// serializes the built index — structure, tunings, and Generation stamp —
// through the internal/persist framing (magic "OSNP", format version,
// per-section CRC-32). Load restores an equivalent solver into the
// receiver: queries against the loaded solver return entry-for-entry the
// same results as against the saved one, and its Generation stamp is
// preserved so the serving layer can resume the mutation log from the exact
// snapshot boundary.
//
// Load follows the same fresh-backing rule as the mutation contract: the
// restored state never aliases the reader's buffers, so callers may reuse
// or mutate the source bytes after Load returns. Load reads r to EOF, so
// nothing after the snapshot can be read from it. Corrupted, truncated, or
// version-skewed streams return errors — never a panic, never a solver that
// silently answers from bad state.
//
// All repository solvers implement Persister and register a snapshot kind
// with internal/persist, so persist.LoadAny (or the root facade's
// LoadSolver) can reconstruct a solver from a stream alone.
type Persister interface {
	Save(w io.Writer) error
	Load(r io.Reader) error
}

// SnapshotBytes serializes a solver's snapshot into a fresh byte slice — the
// shard-shipping helper: the returned bytes are the solver's self-describing
// persist stream, reconstructible by persist.LoadAny on any side of a wire.
// Fails when the solver does not implement Persister.
func SnapshotBytes(s Solver) ([]byte, error) {
	p, ok := s.(Persister)
	if !ok {
		return nil, fmt.Errorf("mips: %s does not implement Save", s.Name())
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ValidatePermutation checks that ids is a permutation of [0, n) — the
// shape every solver's item-order map must have after Load. Decoded state
// is checksummed, but a checksum only proves the bytes survived transit;
// this proves a hand-built or version-skewed stream cannot install an id
// map that silently mis-answers.
func ValidatePermutation(ids []int, n int) error {
	if len(ids) != n {
		return fmt.Errorf("mips: id map has %d entries, want %d", len(ids), n)
	}
	seen := make([]bool, n)
	for _, id := range ids {
		if id < 0 || id >= n {
			return fmt.Errorf("mips: id %d out of range [0,%d)", id, n)
		}
		if seen[id] {
			return fmt.Errorf("mips: duplicate id %d", id)
		}
		seen[id] = true
	}
	return nil
}

// NaiveKind is Naive's snapshot kind string.
const NaiveKind = "Naive"

func init() {
	persist.Register(NaiveKind, func() persist.LoadSaver { return NewNaive() })
}

// Save implements Persister.
func (n *Naive) Save(w io.Writer) error {
	if n.users == nil {
		return fmt.Errorf("mips: Save before Build")
	}
	pw, err := persist.NewWriter(w, NaiveKind)
	if err != nil {
		return err
	}
	pw.Section("naive", func(e *persist.Encoder) {
		e.U64(n.gen)
		e.Matrix(n.users)
		e.Matrix(n.items)
	})
	return pw.Close()
}

// Load implements Persister.
func (n *Naive) Load(r io.Reader) error {
	pr, err := persist.NewReader(r, NaiveKind)
	if err != nil {
		return err
	}
	d := pr.Section("naive")
	gen := d.U64()
	users := d.Matrix()
	items := d.Matrix()
	if err := d.Err(); err != nil {
		return err
	}
	if err := pr.Close(); err != nil {
		return err
	}
	if err := ValidateInputs(users, items); err != nil {
		return err
	}
	n.users, n.items, n.gen = users, items, gen
	return nil
}
