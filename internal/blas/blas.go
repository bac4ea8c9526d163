// Package blas provides the hardware-efficient linear-algebra kernels that
// the paper obtains from Intel MKL / OpenBLAS, applying the structural
// optimizations the paper credits for BMM's surprising speed (§II-B):
// register blocking (several output values accumulated per pass over a row),
// cache tiling (operands revisited while hot), SIMD (an AVX2 micro-kernel on
// amd64, with the pure-Go tile as oracle and fallback), and batch-level
// parallelism.
//
// All matrices are row-major. The workhorse is GemmNT, which computes
// C = A · Bᵀ — exactly the "users × itemsᵀ" product at the heart of batch
// MIPS — so both operands stream along contiguous rows.
package blas

import (
	"fmt"

	"optimus/internal/mat"
	"optimus/internal/parallel"
)

// Cache-tile sizes: aRowTile × f float64s of A and bRowTile × f of B are
// revisited while resident in cache, which keeps the working set of the inner
// two loops near 256 KiB for f ≈ 100 — the L2-sizing argument of §IV-A.
// aRowTile is also the parallel grain. The micro-kernel's register tile is
// kernelRows rows of A against one kernelCols-row panel of B; both divide
// their cache tile.
const (
	aRowTile = 128
	bRowTile = 64

	kernelRows = 4
	kernelCols = 8
)

// Dot returns the inner product of a and b using four independent
// accumulators so the additions pipeline. Panics if lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("blas: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		// Re-slicing with a constant upper bound eliminates bounds checks
		// in the unrolled body.
		aa, bb := a[i:i+4], b[i:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// DotFrom returns s plus the inner product of a and b, adding one product at
// a time in coordinate order: s += a[i]*b[i] for i = 0, 1, …, each multiply
// and add rounded separately. That is the order in which gemmTile and the
// AVX2 kernel sum every element of a GEMM, so DotFrom(0, a, b) equals the
// product's element to the bit, and so does a sum carried across consecutive
// coordinate ranges (DotFrom(DotFrom(0, a[:i], b[:i]), a[i:], b[i:])). It is
// slower than Dot — one dependent chain instead of four — and is for callers
// whose scores must agree with a multiply's. Panics if lengths differ.
func DotFrom(s float64, a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("blas: dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)] // lets the compiler drop the bounds check below
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place. Panics if lengths differ.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("blas: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// GemvNT computes out[i] = A.Row(i) · x for every row of A.
// out must have length A.Rows().
func GemvNT(a *mat.Matrix, x []float64, out []float64) {
	if len(x) != a.Cols() {
		panic(fmt.Sprintf("blas: gemv x length %d, want %d", len(x), a.Cols()))
	}
	if len(out) != a.Rows() {
		panic(fmt.Sprintf("blas: gemv out length %d, want %d", len(out), a.Rows()))
	}
	for i := 0; i < a.Rows(); i++ {
		out[i] = Dot(a.Row(i), x)
	}
}

// GemmNT computes C = A · Bᵀ where A is m×f, B is n×f, and C is m×n.
// C's contents are overwritten. This is the blocked matrix multiply (BMM)
// kernel: output rows are produced in aRowTile × bRowTile tiles; within a
// tile the AVX2 micro-kernel (kernel_amd64.s) fills 4×8 register tiles from
// a packed copy of B, and the scalar gemmTile covers the edges — and whole
// products where the kernel is not available. Both accumulate every element
// in DotFrom's order, so the result does not depend on which one ran.
func GemmNT(a, b, c *mat.Matrix) {
	GemmNTParallel(a, b, c, 1)
}

// GemmNTParallel is GemmNT with the A rows sharded across the parallel
// worker pool in aRowTile-sized chunks. Each chunk owns a disjoint slab of
// C, so no synchronization beyond the final join is needed — the same
// "read-only index, partition the users" strategy §V-B reports scaling
// near-linearly — and every C element is accumulated in the same order at
// any thread count, so results are bit-identical to serial GemmNT.
// threads <= 0 defers to the package-wide parallel.Threads() default.
func GemmNTParallel(a, b, c *mat.Matrix, threads int) {
	GemmNTPacked(a, Pack(b, a.Rows()), c, threads)
}

// GemmNTPacked is GemmNTParallel against a B that was packed ahead of time,
// for callers multiplying several A slabs by the same B.
func GemmNTPacked(a *mat.Matrix, p *Packed, c *mat.Matrix, threads int) {
	checkGemmShapes(a, p.b, c)
	parallel.ForThreads(threads, a.Rows(), aRowTile, func(lo, hi int) {
		gemmRange(a, p, c, lo, hi)
	})
}

func checkGemmShapes(a, b, c *mat.Matrix) {
	if a.Cols() != b.Cols() {
		panic(fmt.Sprintf("blas: gemm inner dims %d vs %d", a.Cols(), b.Cols()))
	}
	if c.Rows() != a.Rows() || c.Cols() != b.Rows() {
		panic(fmt.Sprintf("blas: gemm output %dx%d, want %dx%d",
			c.Rows(), c.Cols(), a.Rows(), b.Rows()))
	}
}

// Packed is the B operand of GemmNT, with the rows the micro-kernel will
// read re-laid as 8-row, k-major panels: panel p holds B rows [8p, 8p+8) as
// panels[(p*f+k)*8+lane] = B[8p+lane][k], so one 32-byte load yields the k-th
// factor of four adjacent output columns. The n%8 trailing rows stay
// unpacked; the scalar tile reads them from b.
type Packed struct {
	b      *mat.Matrix
	panels []float64 // nil: no kernel in this build / on this CPU, or nothing to pack
}

// Pack prepares b for GemmNTPacked calls whose A operands total aRows rows.
// Fewer than kernelRows of them would never reach the kernel, so nothing is
// copied then. The result aliases b and is only valid while b is unchanged.
func Pack(b *mat.Matrix, aRows int) *Packed {
	p := &Packed{}
	Repack(p, b, aRows)
	return p
}

// Repack makes p what Pack(b, aRows) returns, laying the panels into p's
// existing buffer when it is large enough — for a caller that keeps one
// packed operand across changes to the rows behind it.
func Repack(p *Packed, b *mat.Matrix, aRows int) {
	p.b = b
	n8, f := b.Rows()&^(kernelCols-1), b.Cols()
	if !useKernel || aRows < kernelRows || n8 == 0 || f == 0 {
		p.panels = nil
		return
	}
	if cap(p.panels) < n8*f {
		p.panels = make([]float64, n8*f)
	}
	p.panels = p.panels[:n8*f]
	for j0 := 0; j0 < n8; j0 += kernelCols {
		// Write each panel front to back, reading its kernelCols (eight) rows
		// in step.
		panel := p.panels[j0*f : (j0+kernelCols)*f]
		r0, r1, r2, r3 := b.Row(j0)[:f], b.Row(j0 + 1)[:f], b.Row(j0 + 2)[:f], b.Row(j0 + 3)[:f]
		r4, r5, r6, r7 := b.Row(j0 + 4)[:f], b.Row(j0 + 5)[:f], b.Row(j0 + 6)[:f], b.Row(j0 + 7)[:f]
		for k := range f {
			d := panel[k*kernelCols : k*kernelCols+kernelCols]
			d[0], d[1], d[2], d[3] = r0[k], r1[k], r2[k], r3[k]
			d[4], d[5], d[6], d[7] = r4[k], r5[k], r6[k], r7[k]
		}
	}
}

// gemmRange computes C rows [rowLo, rowHi) of A·Bᵀ — one aRowTile-high chunk
// of the parallel loop. It is the one place that chooses between the
// micro-kernel and the scalar tile: full 4×8 tiles over the packed columns go
// to the kernel, the m%4 trailing rows and the n%8 trailing columns to
// gemmTile.
func gemmRange(a *mat.Matrix, p *Packed, c *mat.Matrix, rowLo, rowHi int) {
	b, n, f := p.b, p.b.Rows(), p.b.Cols()
	rows4, n8 := rowLo, 0
	if p.panels != nil {
		rows4 = rowLo + (rowHi-rowLo)&^(kernelRows-1)
		n8 = len(p.panels) / f
	}
	if rows4 > rowLo {
		ad, cd := a.Data(), c.Data()
		for jb := 0; jb < n8; jb += bRowTile {
			npanels := (min(jb+bRowTile, n8) - jb) / kernelCols
			for i := rowLo; i < rows4; i += kernelRows {
				kernel4x8(&ad[i*f], &p.panels[jb*f], &cd[i*n+jb], f, n, npanels)
			}
		}
		gemmScalar(a, b, c, rowLo, rows4, n8, n)
	}
	gemmScalar(a, b, c, rows4, rowHi, 0, n)
}

// gemmScalar fills C[i][j] for i in [iLo,iHi), j in [jLo,jHi) with the scalar
// tile, bRowTile columns at a time.
func gemmScalar(a, b, c *mat.Matrix, iLo, iHi, jLo, jHi int) {
	for jb := jLo; jb < jHi; jb += bRowTile {
		gemmTile(a, b, c, iLo, iHi, jb, min(jb+bRowTile, jHi))
	}
}

// gemmTile fills C[i][j] for i in [iLo,iHi), j in [jLo,jHi): four columns per
// pass over the A row, and the trailing ones through DotFrom. Every element is
// summed in DotFrom's order, whichever of the two computes it.
func gemmTile(a, b, c *mat.Matrix, iLo, iHi, jLo, jHi int) {
	for i := iLo; i < iHi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		j := jLo
		for ; j+4 <= jHi; j += 4 {
			b0 := b.Row(j)
			b1 := b.Row(j + 1)
			b2 := b.Row(j + 2)
			b3 := b.Row(j + 3)
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			crow[j] = s0
			crow[j+1] = s1
			crow[j+2] = s2
			crow[j+3] = s3
		}
		for ; j < jHi; j++ {
			crow[j] = DotFrom(0, arow, b.Row(j))
		}
	}
}

// NaiveGemmNT is the textbook triple loop with no blocking, kept as the
// correctness oracle for tests and as the "naïve inner products" baseline the
// paper contrasts BMM against (§II-B reports BLAS beating it by ~40×; our
// gap is smaller — BenchmarkGemmBlockedVsNaive prints it — but the direction
// is the same).
func NaiveGemmNT(a, b, c *mat.Matrix) {
	checkGemmShapes(a, b, c)
	for i := 0; i < a.Rows(); i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for j := 0; j < b.Rows(); j++ {
			brow := b.Row(j)
			var s float64
			for k := range arow {
				s += arow[k] * brow[k]
			}
			crow[j] = s
		}
	}
}
