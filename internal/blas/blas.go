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
	if c.Cols() != p.n {
		panic(fmt.Sprintf("blas: gemm output %dx%d, want %dx%d", c.Rows(), c.Cols(), a.Rows(), p.n))
	}
	checkGemmShapes(a, p, c, 0)
	parallel.ForThreads(threads, a.Rows(), aRowTile, func(lo, hi int) {
		gemmRange(a, p, c, lo, hi, 0)
	})
}

// GemmNTPackedCols computes C = A · B[j0 : j0+w]ᵀ on the calling goroutine,
// where w = C.Cols(): B's rows j0 … j0+w−1 become C's w columns. j0 must be a
// multiple of eight, and so must j0+w unless it is B's row count, so a
// window never splits a panel. It is for a caller that harvests a wide
// product one column block at a time, while the block's scores are still in
// cache; every element equals GemmNTPacked's to the bit.
func GemmNTPackedCols(a *mat.Matrix, p *Packed, c *mat.Matrix, j0 int) {
	checkGemmShapes(a, p, c, j0)
	gemmRange(a, p, c, 0, a.Rows(), j0)
}

// checkGemmShapes validates C = A · B[j0 : j0+C.Cols()]ᵀ against p's B.
func checkGemmShapes(a *mat.Matrix, p *Packed, c *mat.Matrix, j0 int) {
	if a.Cols() != p.f {
		panic(fmt.Sprintf("blas: gemm inner dims %d vs %d", a.Cols(), p.f))
	}
	j1 := j0 + c.Cols()
	if c.Rows() != a.Rows() || j0 < 0 || j1 > p.n {
		panic(fmt.Sprintf("blas: gemm output %dx%d from column %d, want %d rows within %d columns",
			c.Rows(), c.Cols(), j0, a.Rows(), p.n))
	}
	if j0%kernelCols != 0 || (j1%kernelCols != 0 && j1 != p.n) {
		panic(fmt.Sprintf("blas: gemm column window [%d,%d) splits a %d-column panel", j0, j1, kernelCols))
	}
}

// Packed is the B operand of GemmNT, with the rows the micro-kernel will
// read re-laid as 8-row, k-major panels: panel p holds B rows [8p, 8p+8) as
// panels[(p*f+k)*8+lane] = B[8p+lane][k], so one 32-byte load yields the k-th
// factor of four adjacent output columns. The rows no panel holds — the n%8
// trailing ones, or all of them when nothing is packed — stay row-major in
// rest, for the scalar tile.
type Packed struct {
	n, f   int
	panels []float64   // B rows [0, len(panels)/f); nil: none packed
	rest   *mat.Matrix // B rows [len(panels)/f, n)
	buf    []float64   // backing of panels, kept across packs
	own    []float64   // backing of rest when PackRows copied it
}

// Rows returns the row count of the packed B: the columns of a product.
func (p *Packed) Rows() int { return p.n }

// Pack prepares b for GemmNTPacked calls whose A operands total aRows rows.
// Fewer than kernelRows of them would fill less than one kernel tile, which
// does not repay copying B, so nothing is copied then and the scalar tile
// runs. The result aliases b and is only valid while b is unchanged.
func Pack(b *mat.Matrix, aRows int) *Packed {
	p := &Packed{}
	Repack(p, b, aRows)
	return p
}

// Repack makes p what Pack(b, aRows) returns, laying the panels into p's
// existing buffer when it is large enough — for a caller that keeps one
// packed operand across changes to the rows behind it.
func Repack(p *Packed, b *mat.Matrix, aRows int) {
	n8 := p.fill(b, nil, b.Rows(), aRows)
	p.rest = b.RowSlice(n8, b.Rows())
}

// PackRows makes p the packed form of the len(ids) × b.Cols() matrix whose
// row j is b.Row(ids[j]), for GemmNTPacked calls whose A operands total aRows
// rows. The rows are gathered straight into the panels; only the ones no
// panel holds are copied row-major. p does not alias b.
func PackRows(p *Packed, b *mat.Matrix, ids []int32, aRows int) {
	n, f := len(ids), b.Cols()
	n8 := p.fill(b, ids, n, aRows)
	if cap(p.own) < (n-n8)*f {
		p.own = make([]float64, (n-n8)*f)
	}
	rest := p.own[:(n-n8)*f]
	for j := n8; j < n; j++ {
		copy(rest[(j-n8)*f:(j-n8+1)*f], gatherRow(b, ids, j))
	}
	var err error
	if p.rest, err = mat.FromSlice(n-n8, f, rest); err != nil {
		panic(err) // unreachable: rest has exactly (n-n8)*f elements
	}
}

// fill sets p's shape to n × b.Cols() and lays rows [0, n8) of the matrix
// gatherRow(b, ids, ·) describes into the panels, where n8 is n rounded down
// to a whole panel, or 0 when the kernel would never read them. It returns
// n8.
func (p *Packed) fill(b *mat.Matrix, ids []int32, n, aRows int) int {
	f := b.Cols()
	p.n, p.f = n, f
	n8 := n &^ (kernelCols - 1)
	if !useKernel || aRows < kernelRows || n8 == 0 || f == 0 {
		p.panels = nil
		return 0
	}
	if cap(p.buf) < n8*f {
		p.buf = make([]float64, n8*f)
	}
	p.panels = p.buf[:n8*f]
	for j0 := 0; j0 < n8; j0 += kernelCols {
		// Write each panel front to back, reading its kernelCols (eight) rows
		// in step.
		panel := p.panels[j0*f : (j0+kernelCols)*f]
		r0, r1 := gatherRow(b, ids, j0)[:f], gatherRow(b, ids, j0+1)[:f]
		r2, r3 := gatherRow(b, ids, j0+2)[:f], gatherRow(b, ids, j0+3)[:f]
		r4, r5 := gatherRow(b, ids, j0+4)[:f], gatherRow(b, ids, j0+5)[:f]
		r6, r7 := gatherRow(b, ids, j0+6)[:f], gatherRow(b, ids, j0+7)[:f]
		for k := range f {
			d := panel[k*kernelCols : k*kernelCols+kernelCols]
			d[0], d[1], d[2], d[3] = r0[k], r1[k], r2[k], r3[k]
			d[4], d[5], d[6], d[7] = r4[k], r5[k], r6[k], r7[k]
		}
	}
	return n8
}

// gatherRow is b's row ids[j], or b's row j when ids is nil.
func gatherRow(b *mat.Matrix, ids []int32, j int) []float64 {
	if ids != nil {
		j = int(ids[j])
	}
	return b.Row(j)
}

// gemmRange computes C rows [rowLo, rowHi) of A · B[j0 : j0+C.Cols()]ᵀ —
// one aRowTile-high chunk of the parallel loop, or a column window. It is
// the one place that chooses between the micro-kernel and the scalar tile:
// every row goes to the kernel over the panels, the m%4 trailing ones
// padded to a full tile, and the columns no panel holds to gemmTile.
func gemmRange(a *mat.Matrix, p *Packed, c *mat.Matrix, rowLo, rowHi, j0 int) {
	f, ldc := p.f, c.Cols()
	j1, n8 := j0+ldc, 0
	if p.panels != nil {
		n8 = len(p.panels) / f
	}
	if pe := min(n8, j1); j0 < pe {
		rows4 := rowLo + (rowHi-rowLo)&^(kernelRows-1)
		ad, cd := a.Data(), c.Data()
		for jb := j0; jb < pe; jb += bRowTile {
			npanels := (min(jb+bRowTile, pe) - jb) / kernelCols
			for i := rowLo; i < rows4; i += kernelRows {
				kernel4x8(&ad[i*f], &p.panels[jb*f], &cd[i*ldc+jb-j0], f, ldc, npanels)
			}
		}
		if rows4 < rowHi {
			gemmPadded(a, p, c, rows4, rowHi, j0, pe)
		}
	}
	if lo := max(j0, n8); lo < j1 {
		gemmScalar(a, p.rest, c, rowLo, rowHi, lo-n8, j1-n8, lo-j0)
	}
}

// gemmPadded computes C rows [iLo, iHi) — fewer than kernelRows of them —
// over the panel columns [j0, pe) in the kernel: the rows are copied into a
// kernelRows-high A, the missing ones repeating real rows, and each
// bRowTile-wide tile of the product goes through a scratch C from which only
// the real rows are kept. The repeated rows cost kernel time, which is less
// than the scalar tile takes for the real ones.
func gemmPadded(a *mat.Matrix, p *Packed, c *mat.Matrix, iLo, iHi, j0, pe int) {
	f := p.f
	var abuf [kernelRows * 128]float64
	var cbuf [kernelRows * bRowTile]float64
	pa := abuf[:]
	if kernelRows*f > len(pa) {
		pa = make([]float64, kernelRows*f)
	}
	for r := range kernelRows {
		copy(pa[r*f:(r+1)*f], a.Row(iLo+r%(iHi-iLo)))
	}
	for jb := j0; jb < pe; jb += bRowTile {
		w := min(jb+bRowTile, pe) - jb
		kernel4x8(&pa[0], &p.panels[jb*f], &cbuf[0], f, bRowTile, w/kernelCols)
		for i := iLo; i < iHi; i++ {
			copy(c.Row(i)[jb-j0:jb-j0+w], cbuf[(i-iLo)*bRowTile:])
		}
	}
}

// gemmScalar fills C[i][c0+j−jLo] with A row i · B row j for i in [iLo,iHi),
// j in [jLo,jHi), with the scalar tile, bRowTile columns at a time.
func gemmScalar(a, b, c *mat.Matrix, iLo, iHi, jLo, jHi, c0 int) {
	for jb := jLo; jb < jHi; jb += bRowTile {
		gemmTile(a, b, c, iLo, iHi, jb, min(jb+bRowTile, jHi), c0+jb-jLo)
	}
}

// gemmTile fills C[i][c0+j−jLo] with A row i · B row j for i in [iLo,iHi),
// j in [jLo,jHi): four columns per pass over the A row, and the trailing
// ones through DotFrom. Every element is summed in DotFrom's order, whichever
// of the two computes it.
func gemmTile(a, b, c *mat.Matrix, iLo, iHi, jLo, jHi, c0 int) {
	for i := iLo; i < iHi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)[c0 : c0+jHi-jLo]
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
			cc := crow[j-jLo : j-jLo+4]
			cc[0], cc[1], cc[2], cc[3] = s0, s1, s2, s3
		}
		for ; j < jHi; j++ {
			crow[j-jLo] = DotFrom(0, arow, b.Row(j))
		}
	}
}

// NaiveGemmNT is the textbook triple loop with no blocking, kept as the
// correctness oracle for tests and as the "naïve inner products" baseline the
// paper contrasts BMM against (§II-B reports BLAS beating it by ~40×; our
// gap is smaller — BenchmarkGemmBlockedVsNaive prints it — but the direction
// is the same).
func NaiveGemmNT(a, b, c *mat.Matrix) {
	if a.Cols() != b.Cols() {
		panic(fmt.Sprintf("blas: gemm inner dims %d vs %d", a.Cols(), b.Cols()))
	}
	if c.Rows() != a.Rows() || c.Cols() != b.Rows() {
		panic(fmt.Sprintf("blas: gemm output %dx%d, want %dx%d", c.Rows(), c.Cols(), a.Rows(), b.Rows()))
	}
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

// SkipRule is the comparison under which a top-K harvest may pass a score
// over without offering it to its heap.
type SkipRule uint8

const (
	// SkipBelow skips s < thr. It is the rule where item ids do not ascend
	// along the scores: a score tying the threshold may belong to a lower
	// id than the heap's worst entry and win the tie-break.
	SkipBelow SkipRule = iota
	// SkipAtOrBelow skips s <= thr. It is the rule where ids ascend along
	// the scores and every id already in the heap is lower, so a tie
	// always loses.
	SkipAtOrBelow
)

// scanBlock is how many scores the AVX2 scan compares per iteration.
const scanBlock = 16

// Scan returns the index of the first score that rule does not let a
// harvest skip against thr, or len(scores) when it skips them all. A NaN on
// either side of the comparison is never skipped, so it reaches the heap's
// Push, which decides what a NaN means. It is the harvest loop of BMM, the
// MAXIMUS walk and LEMP's head, run 16 scores per iteration with AVX2 where
// the GEMM kernel runs; the result is the same either way.
func Scan(scores []float64, thr float64, rule SkipRule) int {
	j := 0
	if n16 := len(scores) &^ (scanBlock - 1); useKernel && n16 > 0 {
		if rule == SkipAtOrBelow {
			j = scanLE(&scores[0], n16, thr)
		} else {
			j = scanLT(&scores[0], n16, thr)
		}
		if j < n16 {
			return j
		}
	}
	if rule == SkipAtOrBelow {
		for ; j < len(scores); j++ {
			if !(scores[j] <= thr) {
				return j
			}
		}
		return j
	}
	for ; j < len(scores); j++ {
		if !(scores[j] < thr) {
			return j
		}
	}
	return j
}
