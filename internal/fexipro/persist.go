package fexipro

import (
	"fmt"
	"io"
	"math"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/svd"
)

// Kind is FEXIPRO's snapshot kind string (both variants; the variant is in
// the stream).
const Kind = "FEXIPRO"

func init() {
	persist.Register(Kind, func() persist.LoadSaver { return New(Config{}) })
}

// Save implements mips.Persister. The snapshot stores the expensive
// whole-corpus artifacts — the eigenbasis, the rotated matrices, the
// quantization scales — plus the config that shaped them. Everything else
// (tail norms, the int32 quantization slabs, the SIR shift machinery) is a
// deterministic projection of those artifacts and is re-derived at Load: a
// restore is one pass over the rotated matrices instead of a Jacobi
// eigendecomposition and two dense rotations.
//
// scaleU is stored verbatim rather than recomputed: older versions grew
// users incrementally at the Build-time scale, so a snapshot they saved
// carries a scale that is not a function of its tUsers.
//
// The section opens with a generation slot from the era when FEXIPRO was an
// item mutator. Save writes 0 and Load discards it, so the format — and
// every snapshot saved by an older version — is unchanged.
func (x *Index) Save(w io.Writer) error {
	if x.tItems == nil {
		return fmt.Errorf("fexipro: Save before Build")
	}
	pw, err := persist.NewWriter(w, Kind)
	if err != nil {
		return err
	}
	pw.Section("fexipro", func(e *persist.Encoder) {
		e.U64(0) // generation slot, unused
		e.U8(uint8(x.cfg.Variant))
		e.Int(x.h)
		e.F64(x.cfg.EnergyFraction)
		e.Int(x.cfg.QuantLevels)
		e.F64(x.scaleI)
		e.F64(x.scaleU)
		e.Matrix(x.users)
		e.Matrix(x.items)
		e.Ints(x.ids)
		e.F64s(x.norms)
	})
	pw.Section("eigen", func(e *persist.Encoder) {
		e.F64s(x.eig.Values)
		e.Matrix(x.eig.Vectors)
	})
	pw.Section("rotated", func(e *persist.Encoder) {
		e.Matrix(x.tItems)
		e.Matrix(x.tUsers)
	})
	return pw.Close()
}

// Load implements mips.Persister. Variant, EnergyFraction, and QuantLevels
// come from the snapshot — they shaped the stored index — while Threads
// stays with the receiver.
func (x *Index) Load(r io.Reader) error {
	pr, err := persist.NewReader(r, Kind)
	if err != nil {
		return err
	}
	d := pr.Section("fexipro")
	d.U64() // generation slot, unused
	variant := Variant(d.U8())
	h := d.Int()
	energy := d.F64()
	quantLevels := d.Int()
	scaleI := d.F64()
	scaleU := d.F64()
	users := d.Matrix()
	items := d.Matrix()
	ids := d.Ints()
	norms := d.F64s()
	if err := d.Err(); err != nil {
		return err
	}
	d = pr.Section("eigen")
	eigValues := d.F64s()
	eigVectors := d.Matrix()
	if err := d.Err(); err != nil {
		return err
	}
	d = pr.Section("rotated")
	tItems := d.Matrix()
	tUsers := d.Matrix()
	if err := d.Err(); err != nil {
		return err
	}
	if err := pr.Close(); err != nil {
		return err
	}

	if err := mips.ValidateInputs(users, items); err != nil {
		return err
	}
	n, f := items.Rows(), items.Cols()
	nUsers := users.Rows()
	if variant != SI && variant != SIR {
		return fmt.Errorf("fexipro: snapshot variant %d unknown", variant)
	}
	if h < 1 || h > f {
		return fmt.Errorf("fexipro: snapshot split h=%d invalid for %d factors", h, f)
	}
	if !(energy > 0 && energy <= 1) {
		return fmt.Errorf("fexipro: snapshot energy fraction %v out of range", energy)
	}
	if quantLevels < 1 {
		return fmt.Errorf("fexipro: snapshot quant levels %d out of range", quantLevels)
	}
	if !(scaleI > 0) || !(scaleU > 0) || math.IsInf(scaleI, 0) || math.IsInf(scaleU, 0) {
		return fmt.Errorf("fexipro: snapshot quant scales (%v, %v) invalid", scaleI, scaleU)
	}
	if err := mips.ValidatePermutation(ids, n); err != nil {
		return fmt.Errorf("fexipro: snapshot id map: %w", err)
	}
	if len(norms) != n {
		return fmt.Errorf("fexipro: snapshot has %d norms for %d items", len(norms), n)
	}
	for s := 1; s < n; s++ {
		if norms[s] > norms[s-1] {
			return fmt.Errorf("fexipro: snapshot norms not sorted descending at position %d", s)
		}
	}
	if len(eigValues) != f || eigVectors.Rows() != f || eigVectors.Cols() != f {
		return fmt.Errorf("fexipro: snapshot eigenbasis is %dx%d with %d values, want %dx%d",
			eigVectors.Rows(), eigVectors.Cols(), len(eigValues), f, f)
	}
	if tItems.Rows() != n || tItems.Cols() != f {
		return fmt.Errorf("fexipro: snapshot rotated items are %dx%d, want %dx%d", tItems.Rows(), tItems.Cols(), n, f)
	}
	if tUsers.Rows() != nUsers || tUsers.Cols() != f {
		return fmt.Errorf("fexipro: snapshot rotated users are %dx%d, want %dx%d", tUsers.Rows(), tUsers.Cols(), nUsers, f)
	}

	x.cfg.Variant = variant
	x.cfg.EnergyFraction = energy
	x.cfg.QuantLevels = quantLevels
	x.f = f
	x.h = h
	x.users, x.items = users, items
	x.eig = &svd.Eigen{Values: eigValues, Vectors: eigVectors}
	x.ids = ids
	x.norms = norms
	x.tItems = tItems
	x.tUsers = tUsers
	x.scaleI = scaleI
	x.scaleU = scaleU

	// Deterministic projections of the stored artifacts.
	x.itemTail = make([]float64, n)
	for s := 0; s < n; s++ {
		x.itemTail[s] = mat.Norm(tItems.Row(s)[h:])
	}
	x.qItems, x.itemErr = quantize(tItems, scaleI)
	x.qUsers, x.userErr = quantize(tUsers, scaleU)
	x.qUNorm = make([]float64, nUsers)
	for u := 0; u < nUsers; u++ {
		q := x.qUsers[u*f : (u+1)*f]
		var ss float64
		for _, v := range q {
			fv := float64(v) / scaleU
			ss += fv * fv
		}
		x.qUNorm[u] = math.Sqrt(ss)
	}
	x.userNorm = users.RowNorms()

	if variant == SIR {
		x.shift = make([]float64, f)
		for j := h; j < f; j++ {
			mn := math.Inf(1)
			for s := 0; s < n; s++ {
				if v := tItems.At(s, j); v < mn {
					mn = v
				}
			}
			if mn < 0 {
				x.shift[j] = -mn
			}
		}
		x.tailSums = make([]float64, n)
		for s := 0; s < n; s++ {
			row := tItems.Row(s)
			var sum float64
			for j := h; j < f; j++ {
				sum += row[j] + x.shift[j]
			}
			x.tailSums[s] = sum
		}
		x.uTailC = make([]float64, nUsers)
		x.uMaxPos = make([]float64, nUsers)
		for u := 0; u < nUsers; u++ {
			row := tUsers.Row(u)
			var c, mp float64
			for j := h; j < f; j++ {
				c += row[j] * x.shift[j]
				if row[j] > mp {
					mp = row[j]
				}
			}
			x.uTailC[u] = c
			x.uMaxPos[u] = mp
		}
	} else {
		x.shift, x.tailSums, x.uTailC, x.uMaxPos = nil, nil, nil, nil
	}
	x.buildTime = 0
	return nil
}
