//go:build amd64 && !noasm

package blas

// useKernel is whether gemmRange may call kernel4x8: this CPU and OS support
// AVX2. A variable so the package's tests can compare both paths in one run.
var useKernel = hasAVX2()

// kernel4x8 fills C[r][8p+lane] for r in [0,4), p in [0,npanels), lane in
// [0,8) with the inner products of the four f-long rows starting at a (row
// stride f) and the packed panels starting at bp (see Packed); c points at
// C[0][0] and ldc is C's row stride in elements. Lanes are output columns:
// each is summed s += a[k]*b[k] for k = 0..f-1 from s = 0 with a separately
// rounded multiply and add, which is bit for bit what gemmTile's
// four-column loop computes. f and npanels must be positive.
//
//go:noescape
func kernel4x8(a, bp, c *float64, f, ldc, npanels int)

// scanLT returns the first j in [0, n) with !(s[j] < thr), or n: Scan's
// SkipBelow over the n scores from s, 16 per iteration. scanLE is the same
// for !(s[j] <= thr). n must be a positive multiple of 16.
//
//go:noescape
func scanLT(s *float64, n int, thr float64) int

//go:noescape
func scanLE(s *float64, n int, thr float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2 is the usual probe: the CPU reports AVX and AVX2, and the OS saves
// the YMM state (OSXSAVE set, XCR0 bits 1 and 2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
