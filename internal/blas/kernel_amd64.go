//go:build !noasm

package blas

import "unsafe"

//go:noescape
func kernel8x8AVX512(kc int, ap, bp, c *float64, ldc int, store bool)

//go:noescape
func kernel8x24AVX512(kc int, ap, bp0, bp1, bp2, c *float64, ldc int, store bool)

//go:noescape
func kernel4x8FMA(kc int, ap, bp, c *float64, ldc int, store bool)

//go:noescape
func packAStripAVX512(kc, rows int, a *float64, lda int, dst *float64, alpha float64)

//go:noescape
func packBAVX512(kc, n int, b *float64, ldb int, dst *float64, stride int)

func fmaPeakAVX512(n int)

func fmaPeakAVX2(n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// body names a micro-kernel body. Each one can run where the next one up can.
// The AVX-512 body brings its own strip writers too; the others use packAGo
// and packBGo.
type body int

const (
	bodyFMA    body = iota // the portable math.FMA body
	bodyAVX2               // the 4×8 AVX2/FMA assembly, twice per tile
	bodyAVX512             // the 8×8 and 8×24 AVX-512F assembly
)

// kernelBody is decided once at start-up.
var kernelBody = detectBody()

func detectBody() body {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if ecx1&osxsave != 0 { // XGETBV faults unless the OS enabled it
		xcr0, _ = xgetbv()
	}
	return pickBody(maxLeaf, ecx1, ebx7, xcr0)
}

const osxsave = 1 << 27 // CPUID.1:ECX

// pickBody chooses the fastest body the CPU and OS support, from CPUID's
// highest basic leaf, CPUID.1:ECX, CPUID.7.0:EBX and XCR0. The AVX2 body
// needs FMA3 and AVX2 and the OS saving XMM and YMM state; the AVX-512 body
// needs AVX-512F as well and the OS saving opmask and all ZMM state.
func pickBody(maxLeaf, ecx1, ebx7, xcr0 uint32) body {
	const fma, avx = 1 << 12, 1 << 28     // CPUID.1:ECX
	const avx2, avx512f = 1 << 5, 1 << 16 // CPUID.7.0:EBX
	switch {
	case maxLeaf < 7 || ecx1&(fma|osxsave|avx) != fma|osxsave|avx || xcr0&0x6 != 0x6 || ebx7&avx2 == 0:
		return bodyFMA
	case ebx7&avx512f != 0 && xcr0&0xE6 == 0xE6:
		return bodyAVX512
	}
	return bodyAVX2
}

// microKernel computes C[0:microM,0:microN] += Ap·Bp over kc packed steps,
// or C[0:microM,0:microN] = Ap·Bp + 0 with store set.
func microKernel(kc int, ap, bp, c []float64, ldc int, store bool) {
	if kernelBody == bodyFMA {
		microKernelFMA(kc, ap, bp, c, ldc, store)
		return
	}
	// The assembly does no bounds checks of its own.
	if kc < 0 || len(ap) < kc*microM || len(bp) < kc*microN || ldc < 0 || len(c) < (microM-1)*ldc+microN {
		panic("blas: micro-kernel operands out of range")
	}
	a, b := unsafe.SliceData(ap), unsafe.SliceData(bp)
	if kernelBody == bodyAVX512 {
		kernel8x8AVX512(kc, a, b, &c[0], ldc, store)
		return
	}
	// Rows 0–3, then rows 4–7, whose A values sit 4 into each step of Ap
	// (ap is empty only when kc is 0 and it is not read).
	kernel4x8FMA(kc, a, b, &c[0], ldc, store)
	kernel4x8FMA(kc, unsafe.SliceData(ap[min(4, len(ap)):]), b, &c[4*ldc], ldc, store)
}

// wideTile reports whether macroKernel runs microKernel8x24 over full rows
// and groups of three full B strips: with the AVX-512 body only, whose 32
// registers hold the 24 accumulators.
func wideTile() bool { return kernelBody == bodyAVX512 }

// microKernel8x24 computes C[0:microM,0:wideN] += Ap·[Bp0 Bp1 Bp2] over kc
// packed steps, or C[0:microM,0:wideN] = Ap·[Bp0 Bp1 Bp2] + 0 with store
// set: columns 0–7 from strip bp0, 8–15 from bp1 and 16–23 from bp2. Every
// lane gets the arithmetic microKernel gives it. It runs AVX-512 code
// whatever the body, so only where wideTile holds.
func microKernel8x24(kc int, ap, bp0, bp1, bp2, c []float64, ldc int, store bool) {
	// The assembly does no bounds checks of its own.
	if kc < 0 || len(ap) < kc*microM || len(bp0) < kc*microN || len(bp1) < kc*microN || len(bp2) < kc*microN ||
		ldc < 0 || len(c) < (microM-1)*ldc+wideN {
		panic("blas: micro-kernel operands out of range")
	}
	kernel8x24AVX512(kc, unsafe.SliceData(ap), unsafe.SliceData(bp0), unsafe.SliceData(bp1), unsafe.SliceData(bp2), &c[0], ldc, store)
}

// packA is PackA: with the AVX-512 body, one packAStripAVX512 call per
// strip; with any other, packAGo.
func packA(dst []float64, stride int, a []float64, lda, m, kc int, alpha float64) {
	if kernelBody != bodyAVX512 || kc == 0 || lda < 0 {
		packAGo(dst, stride, a, lda, m, kc, alpha)
		return
	}
	for i := 0; i < m; i += microM {
		rows := min(microM, m-i)
		src := a[i*lda:][:(rows-1)*lda+kc] // all the assembly reads: it does no bounds checks
		strip := dst[i/microM*stride:][:kc*microM]
		packAStripAVX512(kc, rows, &src[0], lda, &strip[0], alpha)
	}
}

// packB is PackB: with the AVX-512 body, packBAVX512; with any other,
// packBGo.
func packB(dst []float64, stride int, b []float64, ldb, kc, n int) {
	if kernelBody != bodyAVX512 || kc == 0 || n == 0 || ldb < 0 || stride < 0 {
		packBGo(dst, stride, b, ldb, kc, n)
		return
	}
	// All the assembly reads and writes: it does no bounds checks.
	_, _ = b[(kc-1)*ldb+n-1], dst[(Strips(n)-1)*stride+kc*microN-1]
	packBAVX512(kc, n, &b[0], ldb, &dst[0], stride)
}
