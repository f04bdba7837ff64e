//go:build !amd64 || noasm

package blas

// microKernel computes C[0:microM,0:microN] += Ap·Bp over kc packed steps,
// or C[0:microM,0:microN] = Ap·Bp + 0 with store set.
func microKernel(kc int, ap, bp, c []float64, ldc int, store bool) {
	microKernelFMA(kc, ap, bp, c, ldc, store)
}

// wideTile reports whether macroKernel runs microKernel8x24: never in this
// build, whose only body is the portable one.
func wideTile() bool { return false }

// microKernel8x24 is three microKernel tiles side by side, columns 0–7 from
// strip bp0, 8–15 from bp1 and 16–23 from bp2; macroKernel does not call it
// in this build.
func microKernel8x24(kc int, ap, bp0, bp1, bp2, c []float64, ldc int, store bool) {
	microKernel(kc, ap, bp0, c, ldc, store)
	microKernel(kc, ap, bp1, c[microN:], ldc, store)
	microKernel(kc, ap, bp2, c[2*microN:], ldc, store)
}

// packA is PackA: the Go writer, the only one this build has.
func packA(dst []float64, stride int, a []float64, lda, m, kc int, alpha float64) {
	packAGo(dst, stride, a, lda, m, kc, alpha)
}

// packB is PackB: the Go writer, the only one this build has.
func packB(dst []float64, stride int, b []float64, ldb, kc, n int) {
	packBGo(dst, stride, b, ldb, kc, n)
}
