//go:build !noasm

package blas

import "unsafe"

//go:noescape
func kernel4x8FMA(kc int, ap, bp, c *float64, ldc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// useAsm is decided once at start-up: the assembly body needs FMA3 and AVX2
// in the CPU and YMM state saved by the OS.
var useAsm = hasAVX2FMA()

func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}

// microKernel computes C[0:microM,0:microN] += Ap·Bp over kc packed steps.
func microKernel(kc int, ap, bp, c []float64, ldc int) {
	if !useAsm {
		microKernelFMA(kc, ap, bp, c, ldc)
		return
	}
	// The assembly does no bounds checks of its own.
	if kc < 0 || len(ap) < kc*microM || len(bp) < kc*microN || ldc < 0 || len(c) < (microM-1)*ldc+microN {
		panic("blas: micro-kernel operands out of range")
	}
	kernel4x8FMA(kc, unsafe.SliceData(ap), unsafe.SliceData(bp), &c[0], ldc)
}
