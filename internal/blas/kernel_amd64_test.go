//go:build !noasm

package blas

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
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
	// The 8×24 tile against its definition, three portable 8×8 tiles side
	// by side, with each B strip at an offset of its own.
	t.Run("avx512-8x24-vs-portable", func(t *testing.T) {
		if detectBody() < bodyAVX512 {
			t.Skipf("CPU lacks %s", bodies[bodyAVX512].need)
		}
		rng := rand.New(rand.NewSource(18))
		for _, kc := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, blockKC - 1, blockKC, blockKC + 1} {
			for off := 0; off < 4; off++ {
				for _, store := range []bool{false, true} {
					ap := randSlice(off+kc*microM, rng)[off:]
					var bp [3][]float64
					for s := range bp {
						bp[s] = randSlice((off+s)%4+kc*microN, rng)[(off+s)%4:]
					}
					ldc := wideN + off
					c0 := randSlice(off+microM*ldc, rng)
					got, want := append([]float64(nil), c0...), append([]float64(nil), c0...)
					withBody(bodyAVX512, func() { microKernel8x24(kc, ap, bp[0], bp[1], bp[2], got[off:], ldc, store) })
					withBody(bodyFMA, func() {
						for s := range bp {
							microKernel(kc, ap, bp[s], want[off+s*microN:], ldc, store)
						}
					})
					sameBits(t, fmt.Sprintf("8x24 kc=%d offset=%d store=%v", kc, off, store), got, want)
				}
			}
		}
	})
}

// Dgemm and DgemmPacked agree to the bit under every pair of bodies on
// widths that leave 0, 1 and 2 strips after the AVX-512 body's groups of
// three, on B bands that end inside a group, and on rows that end in a
// fringe strip, in one MC panel and across two; adding into C and storing.
func TestDgemmWideTileMatchesPortable(t *testing.T) {
	runBodyPairs(t, func(t *testing.T, fast, slow func(func())) {
		rng := rand.New(rand.NewSource(21))
		for _, n := range []int{24, 25, 40, 47, 48, 49, 64, 520} {
			for _, m := range []int{13, blockMC + 2} {
				for _, k := range []int{7, blockKC + 1} {
					for _, beta := range []float64{0, 0.3} {
						lda, ldb, ldc := k+1, n+2, n+3
						a, b, c0 := randSlice(m*lda, rng), randSlice(k*ldb, rng), randSlice(m*ldc, rng)
						got, want := append([]float64(nil), c0...), append([]float64(nil), c0...)
						var errFast, errSlow error
						fast(func() { errFast = Dgemm(m, n, k, 1.7, a, lda, b, ldb, beta, got, ldc) })
						slow(func() { errSlow = Dgemm(m, n, k, 1.7, a, lda, b, ldb, beta, want, ldc) })
						if errFast != nil || errSlow != nil {
							t.Fatal(errFast, errSlow)
						}
						what := fmt.Sprintf("Dgemm m=%d n=%d k=%d beta=%v", m, n, k, beta)
						sameBits(t, what, got, want)
					}
					a, b := randSlice(m*k, rng), randSlice(k*n, rng)
					for _, widths := range [][]int{{n}, {n - n/3, n / 3}} {
						heights := []int{m}
						pa, pb := packBands(a, k, heights, true), packBands(b, k, widths, false)
						got, want := nanSlice(m*n), nanSlice(m*n)
						var errFast, errSlow error
						fast(func() { errFast = DgemmPacked(heights, widths, k, pa, pb, got, n) })
						slow(func() { errSlow = DgemmPacked(heights, widths, k, pa, pb, want, n) })
						if errFast != nil || errSlow != nil {
							t.Fatal(errFast, errSlow)
						}
						sameBits(t, fmt.Sprintf("DgemmPacked heights %v widths %v k=%d", heights, widths, k), got, want)
					}
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

// packBands packs the k-deep row-major operand src band by band into strips
// at stride StripWidth·k: row bands of an m×k A (rows true, through PackA
// with alpha 1) or column bands of a k×n B (through PackB).
func packBands(src []float64, k int, bands []int, rows bool) []float64 {
	strips := 0
	for _, e := range bands {
		strips += Strips(e)
	}
	stride := StripWidth * k
	dst := make([]float64, strips*stride)
	for s, at, i := 0, 0, 0; i < len(bands); i++ {
		if rows {
			PackA(dst[s*stride:], stride, src[at*k:], k, bands[i], k, 1)
		} else {
			PackB(dst[s*stride:], stride, src[at:], len(src)/k, k, bands[i])
		}
		s, at = s+Strips(bands[i]), at+bands[i]
	}
	return dst
}

// nanSlice returns n NaNs.
func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// fuzzDims are the extents FuzzDgemmBodies builds m and n from: within one
// of a multiple of the 8×8 and of the 8×24 tile. fuzzKs are its depths:
// around the unroll by 4 and around one and two KC panels.
var (
	fuzzDims = []int{1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 47, 48, 49, 71, 72, 73, 95, 96, 97, 129, 143, 144, 145}
	fuzzKs   = []int{1, 3, 4, 5, 8, 9, blockKC - 1, blockKC, blockKC + 1, 2*blockKC - 1, 2 * blockKC, 2*blockKC + 1}
	// fuzzScalars are the alphas and betas.
	fuzzScalars = []float64{0, 1, -1, 1.7, math.NaN(), math.Inf(1), math.Inf(-1)}
)

// FuzzDgemmBodies: Dgemm under every assembly body gives the portable body's
// bits, on sizes around the 8×8 and 8×24 tiles and the unroll, every special
// alpha and beta, C NaN-poisoned in places (beta 0 must clear it) and padded
// leading dimensions, whose padding must stay untouched. Unlike
// FuzzDgemmPacked, which compares DgemmPacked with Dgemm through one
// macroKernel, the oracle here runs no wide tile: the portable body has none.
// Where two NaNs meet in one operation, which payload survives is the CPU's
// choice of operand order, not the contract's: any NaN matches any NaN.
func FuzzDgemmBodies(f *testing.F) {
	for _, s := range []struct {
		seed                 int64
		m, n, k, alpha, beta uint8
		poison, ldPad, tall  uint8
	}{
		{1, 8, 9, 0, 1, 0, 0, 0, 0}, {2, 1, 25, 2, 3, 1, 1, 1, 0}, {3, 21, 21, 6, 1, 3, 2, 2, 0},
		{4, 13, 20, 7, 4, 2, 3, 3, 0}, {5, 7, 3, 8, 5, 6, 1, 1, 1}, {6, 25, 14, 10, 2, 4, 2, 0, 0},
	} {
		f.Add(s.seed, s.m, s.n, s.k, s.alpha, s.beta, s.poison, s.ldPad, s.tall)
	}
	f.Fuzz(func(t *testing.T, seed int64, mPick, nPick, kPick, alphaPick, betaPick, poison, ldPad, tall uint8) {
		if detectBody() == bodyFMA {
			t.Skip("this CPU runs the portable body alone")
		}
		rng := rand.New(rand.NewSource(seed))
		m, n, k := fuzzDims[int(mPick)%len(fuzzDims)], fuzzDims[int(nPick)%len(fuzzDims)], fuzzKs[int(kPick)%len(fuzzKs)]
		if tall%2 == 1 { // a row past MC's first panel
			m = blockMC + m%8
		}
		alpha, beta := fuzzScalars[int(alphaPick)%len(fuzzScalars)], fuzzScalars[int(betaPick)%len(fuzzScalars)]
		lda, ldb, ldc := k+int(ldPad)%3, n+int(ldPad/3)%3, n+int(ldPad/9)%3
		a, b, c0 := randSlice(m*lda, rng), randSlice(k*ldb, rng), randSlice(m*ldc, rng)
		for i := range c0 {
			if rng.Intn(4) < int(poison)%4 {
				c0[i] = math.NaN()
			}
		}
		want := append([]float64(nil), c0...)
		withBody(bodyFMA, func() {
			if err := Dgemm(m, n, k, alpha, a, lda, b, ldb, beta, want, ldc); err != nil {
				t.Fatal(err)
			}
		})
		for _, bd := range bodies[1:] {
			if bd.body > detectBody() {
				continue
			}
			got := append([]float64(nil), c0...)
			withBody(bd.body, func() {
				if err := Dgemm(m, n, k, alpha, a, lda, b, ldb, beta, got, ldc); err != nil {
					t.Fatal(err)
				}
			})
			for i := range got {
				g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
				if g != w && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					t.Fatalf("%s m=%d n=%d k=%d alpha=%v beta=%v lda=%d ldb=%d ldc=%d: C element %d (row %d, column %d) is %v (%#x), portable gives %v (%#x)",
						bd.name, m, n, k, alpha, beta, lda, ldb, ldc, i, i/ldc, i%ldc, got[i], g, want[i], w)
				}
			}
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

// fmaProbes are each body's FMA peak probe: a call runs n rounds of
// independent FMA chains, flops per round.
var fmaProbes = map[body]struct {
	run   func(n int)
	flops int
}{
	bodyFMA:    {fmaPeakGo, 16},
	bodyAVX2:   {fmaPeakAVX2, 96},
	bodyAVX512: {fmaPeakAVX512, 256},
}

// fmaSink keeps fmaPeakGo's chains live.
var fmaSink float64

// fmaPeakGo is the portable body's probe: n rounds of 8 independent
// math.FMA chains, each in a register of its own.
func fmaPeakGo(n int) {
	x, y := fmaSink, 1+fmaSink
	var c0, c1, c2, c3, c4, c5, c6, c7 float64
	for ; n > 0; n-- {
		c0, c1, c2, c3 = math.FMA(x, y, c0), math.FMA(x, y, c1), math.FMA(x, y, c2), math.FMA(x, y, c3)
		c4, c5, c6, c7 = math.FMA(x, y, c4), math.FMA(x, y, c5), math.FMA(x, y, c6), math.FMA(x, y, c7)
	}
	fmaSink = c0 + c1 + c2 + c3 + c4 + c5 + c6 + c7
}

// BenchmarkFMAPeak runs each body's FMA probe on 1 and on GOMAXPROCS
// goroutines at once, each goroutine running all b.N probes: the compute
// bound of the kernels below it, in GFLOP/s.
func BenchmarkFMAPeak(b *testing.B) {
	const rounds = 1 << 16
	for _, bd := range bodies {
		if bd.body > detectBody() {
			continue
		}
		probe := fmaProbes[bd.body]
		for _, threads := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("%s/%dthreads", bd.name, threads), func(b *testing.B) {
				var wg sync.WaitGroup
				wg.Add(threads)
				for g := 0; g < threads; g++ {
					go func() {
						defer wg.Done()
						for i := 0; i < b.N; i++ {
							probe.run(rounds)
						}
					}()
				}
				wg.Wait()
				b.ReportMetric(float64(probe.flops)*rounds*float64(threads)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
			if runtime.GOMAXPROCS(0) == 1 {
				break
			}
		}
	}
}

// BenchmarkRegisterTile runs the micro-kernel on L1-resident strips at
// kc = 128 (an 8 KiB A strip, three 8 KiB B strips): three 8×8 tiles per
// body, and the AVX-512 body's one 8×24 tile, over the same 8×24 of C. Its
// GFLOPS over BenchmarkFMAPeak's one-thread figure is the tile's share of
// the core's peak.
func BenchmarkRegisterTile(b *testing.B) {
	const kc = 128
	rng := rand.New(rand.NewSource(31))
	ap := randSlice(kc*microM, rng)
	var bp [3][]float64
	for s := range bp {
		bp[s] = randSlice(kc*microN, rng)
	}
	c := make([]float64, microM*wideN)
	report := func(b *testing.B) {
		b.ReportMetric(GemmFlops(microM, wideN, kc)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	}
	benchBodies(b, "8x8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := range bp {
				microKernel(kc, ap, bp[s], c[s*microN:], wideN, true)
			}
		}
		report(b)
	})
	if detectBody() >= bodyAVX512 {
		b.Run("avx512/8x24", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				microKernel8x24(kc, ap, bp[0], bp[1], bp[2], c, wideN, true)
			}
			report(b)
		})
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
