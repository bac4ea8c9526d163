package blas

// WithScalarPath runs fn with the micro-kernel switched off, so everything
// that multiplies through this package takes the scalar tile, and reports
// whether that differs from the default path of this build and CPU. Tests
// using it must not run in parallel with other GEMM callers.
func WithScalarPath(fn func()) (kernelWasOn bool) {
	kernelWasOn = useKernel
	useKernel = false
	defer func() { useKernel = kernelWasOn }()
	fn()
	return kernelWasOn
}
