//go:build !noasm

package blas

import (
	"fmt"
	"math/rand"
	"testing"
)

// bodies lists every micro-kernel body, slowest first, with the CPU feature
// a body needs beyond the one before it.
var bodies = []struct {
	body body
	name string
	need string
}{
	{bodyFMA, "portable", ""},
	{bodyAVX2, "avx2", "AVX2 and FMA3 with YMM state saved by the OS"},
	{bodyAVX512, "avx512", "AVX-512F with opmask and ZMM state saved by the OS"},
}

// withBody runs f with the micro-kernel forced to body b.
func withBody(b body, f func()) {
	defer func(was body) { kernelBody = was }(kernelBody)
	kernelBody = b
	f()
}

// runBodies runs f as one subtest per body, each with the micro-kernel
// forced to that body, skipping those this CPU cannot run.
func runBodies(t *testing.T, f func(t *testing.T)) {
	for _, bd := range bodies {
		t.Run(bd.name, func(t *testing.T) {
			if bd.body > detectBody() {
				t.Skipf("CPU lacks %s", bd.need)
			}
			withBody(bd.body, func() { f(t) })
		})
	}
}

// runBodyPairs runs f as one subtest per pair of bodies, skipping pairs this
// CPU cannot run; fast and slow run a function under the pair's two bodies.
func runBodyPairs(t *testing.T, f func(t *testing.T, fast, slow func(func()))) {
	for i, lo := range bodies {
		for _, hi := range bodies[i+1:] {
			t.Run(hi.name+"-vs-"+lo.name, func(t *testing.T) {
				if hi.body > detectBody() {
					t.Skipf("CPU lacks %s", hi.need)
				}
				f(t, func(g func()) { withBody(hi.body, g) }, func(g func()) { withBody(lo.body, g) })
			})
		}
	}
}

// Every pair of bodies agrees to the bit on one tile, adding into C or
// storing, for k panel lengths around the unroll factor and around KC,
// operands that start off a 32-byte boundary, and a C with padding around the
// tile's rows (compared too: the portable body cannot write there).
func TestAsmBodyMatchesFMABody(t *testing.T) {
	runBodyPairs(t, func(t *testing.T, fast, slow func(func())) {
		rng := rand.New(rand.NewSource(17))
		for _, kc := range []int{0, 1, 2, 3, 4, 5, 7, 8, blockKC - 1, blockKC, blockKC + 1} {
			for off := 0; off < 4; off++ {
				for _, store := range []bool{false, true} {
					ap := randSlice(off+kc*microM, rng)[off:]
					bp := randSlice(off+kc*microN, rng)[off:]
					ldc := microN + off
					c0 := randSlice(off+microM*ldc, rng)
					got, want := append([]float64(nil), c0...), append([]float64(nil), c0...)
					fast(func() { microKernel(kc, ap, bp, got[off:], ldc, store) })
					slow(func() { microKernel(kc, ap, bp, want[off:], ldc, store) })
					sameBits(t, fmt.Sprintf("kc=%d offset=%d store=%v", kc, off, store), got, want)
				}
			}
		}
	})
}

// The same through Dgemm: random shapes with fringes in both directions,
// padded strides, unaligned slice starts.
func TestDgemmAsmMatchesPortable(t *testing.T) {
	runBodyPairs(t, func(t *testing.T, fast, slow func(func())) {
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
			var errFast, errSlow error
			fast(func() { errFast = Dgemm(m, n, k, 1.7, a, lda, b, ldb, 0.3, got[oc:], ldc) })
			slow(func() { errSlow = Dgemm(m, n, k, 1.7, a, lda, b, ldb, 0.3, want[oc:], ldc) })
			if errFast != nil || errSlow != nil {
				t.Fatal(errFast, errSlow)
			}
			sameBits(t, fmt.Sprintf("%v lda=%d ldb=%d ldc=%d", d, lda, ldb, ldc), got, want)
		}
	})
}

// The body choice from CPUID and XCR0: the OS must save a register file's
// state before a body may use it, whatever the CPU reports.
func TestCPUFeaturePredicate(t *testing.T) {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f     = 1 << 5, 1 << 16
		ecx1              = fma | osxsave | avx
		ebx7              = avx2 | avx512f
		xcr0              = 0xE7 // x87, SSE, AVX, opmask, ZMM0–15 upper halves, ZMM16–31
	)
	for _, tc := range []struct {
		name                    string
		maxLeaf, ecx, ebx, xcr0 uint32
		want                    body
	}{
		{"full feature set", 7, ecx1, ebx7, xcr0, bodyAVX512},
		{"AVX-512F without ZMM state in XCR0", 7, ecx1, ebx7, 0x7, bodyAVX2},
		{"AVX-512F without opmask state in XCR0", 7, ecx1, ebx7, xcr0 &^ 0x20, bodyAVX2},
		{"no AVX-512F", 0xD, ecx1, avx2, xcr0, bodyAVX2},
		{"OSXSAVE clear", 7, ecx1 &^ osxsave, ebx7, 0, bodyFMA},
		{"AVX2 without FMA", 7, ecx1 &^ fma, ebx7, xcr0, bodyFMA},
		{"FMA without AVX2", 7, ecx1, avx512f, xcr0, bodyFMA},
		{"no YMM state in XCR0", 7, ecx1, ebx7, 0x3, bodyFMA},
		{"no CPUID leaf 7", 6, ecx1, ebx7, xcr0, bodyFMA},
	} {
		if got := pickBody(tc.maxLeaf, tc.ecx, tc.ebx, tc.xcr0); got != tc.want {
			t.Errorf("%s: body %d, want %d", tc.name, got, tc.want)
		}
	}
	t.Logf("this CPU runs the %s body", bodies[detectBody()].name)
}

// BenchmarkDgemmBody runs BenchmarkDgemmBlocked256, 512 and Cell's products
// under each body this CPU can run.
func BenchmarkDgemmBody(b *testing.B) {
	for _, bd := range bodies {
		if bd.body > detectBody() {
			continue
		}
		for _, d := range []struct {
			name    string
			m, n, k int
		}{{"256", 256, 256, 256}, {"512", 512, 512, 512}, {"Cell", 260, 180, 512}} {
			b.Run(bd.name+"/"+d.name, func(b *testing.B) {
				withBody(bd.body, func() { benchDgemm(b, KernelBlocked, d.m, d.n, d.k) })
			})
		}
	}
}

// benchBodies runs f as one sub-benchmark per body this CPU can run, named
// body/name.
func benchBodies(b *testing.B, name string, f func(b *testing.B)) {
	for _, bd := range bodies {
		if bd.body <= detectBody() {
			b.Run(bd.name+"/"+name, func(b *testing.B) { withBody(bd.body, func() { f(b) }) })
		}
	}
}
