//go:build !noasm

package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

// withBody runs f with the micro-kernel body forced to the assembly or to
// the portable one.
func withBody(asm bool, f func()) {
	defer func(was bool) { useAsm = was }(useAsm)
	useAsm = asm
	f()
}

// The assembly and math.FMA bodies agree to the bit on one tile, for k panel
// lengths around the unroll factor and around KC, operands that start off a
// 32-byte boundary, and a C with padding around the tile's rows (compared
// too: the portable body cannot write there).
func TestAsmBodyMatchesFMABody(t *testing.T) {
	if !useAsm {
		t.Skip("CPU has no AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(17))
	for _, kc := range []int{0, 1, 2, 3, 4, 5, 7, 8, blockKC - 1, blockKC, blockKC + 1} {
		for off := 0; off < 4; off++ {
			ap := randSlice(off+kc*microM, rng)[off:]
			bp := randSlice(off+kc*microN, rng)[off:]
			ldc := microN + off
			c0 := randSlice(off+microM*ldc, rng)
			got, want := append([]float64(nil), c0...), append([]float64(nil), c0...)
			withBody(true, func() { microKernel(kc, ap, bp, got[off:], ldc) })
			withBody(false, func() { microKernel(kc, ap, bp, want[off:], ldc) })
			sameBits(t, fmt.Sprintf("kc=%d offset=%d", kc, off), got, want)
		}
	}
}

// The same through Dgemm: random shapes with fringes in both directions,
// padded strides, unaligned slice starts.
func TestDgemmAsmMatchesPortable(t *testing.T) {
	if !useAsm {
		t.Skip("CPU has no AVX2+FMA")
	}
	rng := rand.New(rand.NewSource(19))
	dims := [][3]int{{blockMC + 5, blockNC + 9, blockKC + 3}}
	for i := 0; i < 200; i++ {
		dims = append(dims, [3]int{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	for _, d := range dims {
		m, n, k := d[0], d[1], d[2]
		lda, ldb, ldc := k+rng.Intn(4), n+rng.Intn(4), n+rng.Intn(4)
		oa, ob, oc := rng.Intn(4), rng.Intn(4), rng.Intn(4)
		a, b, c0 := randSlice(oa+m*lda, rng)[oa:], randSlice(ob+k*ldb, rng)[ob:], randSlice(oc+m*ldc, rng)
		got, want := append([]float64(nil), c0...), append([]float64(nil), c0...)
		var errAsm, errGo error
		withBody(true, func() { errAsm = Dgemm(m, n, k, 1.7, a, lda, b, ldb, 0.3, got[oc:], ldc) })
		withBody(false, func() { errGo = Dgemm(m, n, k, 1.7, a, lda, b, ldb, 0.3, want[oc:], ldc) })
		if errAsm != nil || errGo != nil {
			t.Fatal(errAsm, errGo)
		}
		sameBits(t, fmt.Sprintf("%v lda=%d ldb=%d ldc=%d", d, lda, ldb, ldc), got, want)
	}
}
