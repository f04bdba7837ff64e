package blas

import "math"

// microKernelFMA is the portable body of the micro-kernel and the
// definition of its arithmetic: every element of the microM×microN tile is
// accumulated from zero as acc = fma(a, b, acc) over the kc packed steps in
// k order, then added into C once, or, with store set, written to C as
// acc + 0 without reading C (what a zeroed C would have given; see the
// package comment). The amd64 assembly bodies perform exactly this chain per
// lane, so all bodies are bit-identical. The tile is swept as four 4×4
// quarters so the 16 live accumulators fit the register file; the lanes are
// independent, so the sweep order does not touch the result.
func microKernelFMA(kc int, ap, bp, c []float64, ldc int, store bool) {
	for i := 0; i < microM; i += 4 {
		for j := 0; j < microN; j += 4 {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for l := 0; l < kc; l++ {
				a := ap[l*microM+i : l*microM+i+4]
				b := bp[l*microN+j : l*microN+j+4]
				c00 = math.FMA(a[0], b[0], c00)
				c01 = math.FMA(a[0], b[1], c01)
				c02 = math.FMA(a[0], b[2], c02)
				c03 = math.FMA(a[0], b[3], c03)
				c10 = math.FMA(a[1], b[0], c10)
				c11 = math.FMA(a[1], b[1], c11)
				c12 = math.FMA(a[1], b[2], c12)
				c13 = math.FMA(a[1], b[3], c13)
				c20 = math.FMA(a[2], b[0], c20)
				c21 = math.FMA(a[2], b[1], c21)
				c22 = math.FMA(a[2], b[2], c22)
				c23 = math.FMA(a[2], b[3], c23)
				c30 = math.FMA(a[3], b[0], c30)
				c31 = math.FMA(a[3], b[1], c31)
				c32 = math.FMA(a[3], b[2], c32)
				c33 = math.FMA(a[3], b[3], c33)
			}
			ct := c[i*ldc+j:]
			putRow(ct[:4], store, c00, c01, c02, c03)
			putRow(ct[ldc:ldc+4], store, c10, c11, c12, c13)
			putRow(ct[2*ldc:2*ldc+4], store, c20, c21, c22, c23)
			putRow(ct[3*ldc:3*ldc+4], store, c30, c31, c32, c33)
		}
	}
}

// putRow adds four accumulators into a row of C, or stores them plus +0.
func putRow(r []float64, store bool, v0, v1, v2, v3 float64) {
	r = r[:4]
	if store {
		r[0], r[1], r[2], r[3] = v0+0, v1+0, v2+0, v3+0
		return
	}
	r[0], r[1], r[2], r[3] = r[0]+v0, r[1]+v1, r[2]+v2, r[3]+v3
}
