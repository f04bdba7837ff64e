//go:build !amd64 || noasm

package blas

// microKernel computes C[0:microM,0:microN] += Ap·Bp over kc packed steps,
// or C[0:microM,0:microN] = Ap·Bp + 0 with store set.
func microKernel(kc int, ap, bp, c []float64, ldc int, store bool) {
	microKernelFMA(kc, ap, bp, c, ldc, store)
}

// packA is PackA: the Go writer, the only one this build has.
func packA(dst []float64, stride int, a []float64, lda, m, kc int, alpha float64) {
	packAGo(dst, stride, a, lda, m, kc, alpha)
}

// packB is PackB: the Go writer, the only one this build has.
func packB(dst []float64, stride int, b []float64, ldb, kc, n int) {
	packBGo(dst, stride, b, ldb, kc, n)
}
