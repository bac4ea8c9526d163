//go:build !amd64 || noasm

package blas

// useKernel is false in builds without the assembly kernel (other
// architectures, or the noasm tag): gemmRange then runs the scalar tile only.
// A variable, as in kernel_amd64.go, so the tests that switch it compile in
// both builds.
var useKernel = false

func kernel4x8(a, bp, c *float64, f, ldc, npanels int) {
	panic("blas: kernel4x8 called in a build without it")
}

func scanLT(s *float64, n int, thr float64) int {
	panic("blas: scanLT called in a build without it")
}

func scanLE(s *float64, n int, thr float64) int {
	panic("blas: scanLE called in a build without it")
}
