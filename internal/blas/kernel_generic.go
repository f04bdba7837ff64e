//go:build !amd64 || noasm

package blas

// microKernel computes C[0:microM,0:microN] += Ap·Bp over kc packed steps.
func microKernel(kc int, ap, bp, c []float64, ldc int) {
	microKernelFMA(kc, ap, bp, c, ldc)
}
