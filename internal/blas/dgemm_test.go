package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSlice(n int, rng *rand.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 2*rng.Float64() - 1
	}
	return s
}

// oracle computes C = alpha*A*B + beta*C with a simple j-inner loop,
// independent of the kernels under test.
func oracle(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for l := 0; l < k; l++ {
				s += a[i*lda+l] * b[l*ldb+j]
			}
			c[i*ldc+j] = alpha*s + beta*c[i*ldc+j]
		}
	}
}

func approxEq(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		scale := 1 + math.Max(math.Abs(a[i]), math.Abs(b[i]))
		if math.Abs(a[i]-b[i]) > tol*scale {
			return false
		}
	}
	return true
}

func TestDgemmSmallFixture(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c := make([]float64, 4)
	if err := Dgemm(2, 2, 2, 1, a, 2, b, 2, 0, c, 2); err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	if !approxEq(c, want, 1e-14) {
		t.Fatalf("got %v, want %v", c, want)
	}
}

func TestDgemmAlphaBeta(t *testing.T) {
	a := []float64{1, 0, 0, 1} // identity
	b := []float64{2, 3, 4, 5}
	c := []float64{10, 10, 10, 10}
	if err := Dgemm(2, 2, 2, 2, a, 2, b, 2, 3, c, 2); err != nil {
		t.Fatal(err)
	}
	want := []float64{2*2 + 30, 2*3 + 30, 2*4 + 30, 2*5 + 30}
	if !approxEq(c, want, 1e-14) {
		t.Fatalf("got %v, want %v", c, want)
	}
}

func TestDgemmBetaZeroClearsNaN(t *testing.T) {
	// beta==0 must overwrite C even if it held NaN (BLAS convention).
	a := []float64{1}
	b := []float64{1}
	c := []float64{math.NaN()}
	if err := Dgemm(1, 1, 1, 1, a, 1, b, 1, 0, c, 1); err != nil {
		t.Fatal(err)
	}
	if c[0] != 1 {
		t.Fatalf("got %v, want 1", c[0])
	}
}

func TestDgemmZeroDims(t *testing.T) {
	c := []float64{7}
	if err := Dgemm(0, 0, 0, 1, nil, 1, nil, 1, 0, c, 1); err != nil {
		t.Fatal(err)
	}
	if c[0] != 7 {
		t.Fatal("m=n=0 GEMM must not touch C")
	}
	// k == 0 means C = beta*C.
	c = []float64{3}
	if err := Dgemm(1, 1, 0, 1, nil, 1, nil, 1, 2, c, 1); err != nil {
		t.Fatal(err)
	}
	if c[0] != 6 {
		t.Fatalf("k=0 GEMM: got %v, want 6", c[0])
	}
}

func TestDgemmArgErrors(t *testing.T) {
	a := make([]float64, 4)
	cases := []struct {
		name                   string
		m, n, k, lda, ldb, ldc int
		la, lb, lc             int
	}{
		{"negative m", -1, 1, 1, 1, 1, 1, 4, 4, 4},
		{"small lda", 2, 2, 2, 1, 2, 2, 4, 4, 4},
		{"small ldb", 2, 2, 2, 2, 1, 2, 4, 4, 4},
		{"small ldc", 2, 2, 2, 2, 2, 1, 4, 4, 4},
		{"short a", 2, 2, 2, 2, 2, 2, 3, 4, 4},
		{"short b", 2, 2, 2, 2, 2, 2, 4, 3, 4},
		{"short c", 2, 2, 2, 2, 2, 2, 4, 4, 3},
	}
	for _, tc := range cases {
		err := Dgemm(tc.m, tc.n, tc.k, 1, a[:tc.la], tc.lda, a[:tc.lb], tc.ldb, 0, make([]float64, tc.lc), tc.ldc)
		if err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestDgemmUnknownKernel(t *testing.T) {
	if err := DgemmKernel(Kernel(99), 1, 1, 1, 1, []float64{1}, 1, []float64{1}, 1, 0, []float64{0}, 1); err == nil {
		t.Fatal("unknown kernel must error")
	}
}

func TestNaiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {8, 8, 8}, {13, 17, 11}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(m*k, rng)
		b := randSlice(k*n, rng)
		c1 := randSlice(m*n, rng)
		c2 := append([]float64(nil), c1...)
		if err := DgemmKernel(KernelNaive, m, n, k, 1.3, a, k, b, n, 0.7, c1, n); err != nil {
			t.Fatal(err)
		}
		oracle(m, n, k, 1.3, a, k, b, n, 0.7, c2, n)
		if !approxEq(c1, c2, 1e-12) {
			t.Fatalf("naive mismatch for %v", dims)
		}
	}
}

func TestBlockedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Sizes chosen to sit on and either side of the micro-tile and the
	// MC/KC/NC panel boundaries; the last two are large enough for the
	// multi-worker path.
	for _, dims := range [][3]int{
		{1, 1, 1}, {microM, microN, 4}, {microM - 1, microN - 1, 2}, {microM + 1, microN + 1, 3},
		{130, 50, 70}, {blockMC, blockNC, blockKC}, {blockMC + 1, blockNC + 1, blockKC + 1},
		{2*blockMC + 3, blockNC - 1, 2*blockKC - 1},
	} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randSlice(m*k, rng)
		b := randSlice(k*n, rng)
		c1 := randSlice(m*n, rng)
		c2 := append([]float64(nil), c1...)
		if err := DgemmKernel(KernelBlocked, m, n, k, 0.9, a, k, b, n, 1.1, c1, n); err != nil {
			t.Fatal(err)
		}
		if err := DgemmKernel(KernelNaive, m, n, k, 0.9, a, k, b, n, 1.1, c2, n); err != nil {
			t.Fatal(err)
		}
		if !approxEq(c1, c2, 1e-10) {
			t.Fatalf("blocked mismatch for %v", dims)
		}
	}
}

func TestDgemmStridedOperands(t *testing.T) {
	// Embed 3x4 A, 4x2 B, 3x2 C in larger arrays with excess stride.
	rng := rand.New(rand.NewSource(9))
	lda, ldb, ldc := 7, 5, 6
	a := randSlice(3*lda, rng)
	b := randSlice(4*ldb, rng)
	c1 := randSlice(3*ldc, rng)
	c2 := append([]float64(nil), c1...)
	if err := Dgemm(3, 2, 4, 1, a, lda, b, ldb, 0.5, c1, ldc); err != nil {
		t.Fatal(err)
	}
	oracle(3, 2, 4, 1, a, lda, b, ldb, 0.5, c2, ldc)
	// Only the 3x2 block within stride-ldc rows should change; oracle
	// writes the same region. Compare entire arrays: untouched tail must
	// be identical too.
	if !approxEq(c1, c2, 1e-12) {
		t.Fatal("strided GEMM mismatch")
	}
}

// Property: blocked kernel agrees with the reference on random shapes,
// alphas, betas, and strides.
func TestQuickBlockedEqualsNaive(t *testing.T) {
	// Small draws are all fringe tiles; wide ones reach a little past MC, NC
	// and KC, so some cross each.
	t.Run("small", func(t *testing.T) { quickBlockedEqualsNaive(t, 200, 20, 20, 20) })
	t.Run("wide", func(t *testing.T) { quickBlockedEqualsNaive(t, 100, blockMC+20, blockNC+20, blockKC+20) })
}

func quickBlockedEqualsNaive(t *testing.T, draws, maxM, maxN, maxK int) {
	f := func(seed int64, m16, n16, k16 uint16, pad uint8, alpha, beta float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(beta) || math.IsInf(beta, 0) {
			return true
		}
		// Keep magnitudes sane so relative comparison is meaningful.
		alpha = math.Mod(alpha, 3)
		beta = math.Mod(beta, 3)
		rng := rand.New(rand.NewSource(seed))
		m := int(m16)%maxM + 1
		n := int(n16)%maxN + 1
		k := int(k16)%maxK + 1
		lda := k + int(pad%3)
		ldb := n + int(pad%2)
		ldc := n + int(pad%4)
		a := randSlice(m*lda, rng)
		b := randSlice(k*ldb, rng)
		c1 := randSlice(m*ldc, rng)
		c2 := append([]float64(nil), c1...)
		if err := DgemmKernel(KernelBlocked, m, n, k, alpha, a, lda, b, ldb, beta, c1, ldc); err != nil {
			return false
		}
		if err := DgemmKernel(KernelNaive, m, n, k, alpha, a, lda, b, ldb, beta, c2, ldc); err != nil {
			return false
		}
		return approxEq(c1, c2, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: draws}); err != nil {
		t.Fatal(err)
	}
}

// sameBits reports the first index at which a and b differ as bit patterns.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", what, i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
}

// cuts returns 0 = c[0] < c[1] < … = n with random interior points.
func cuts(n int, rng *rand.Rand) []int {
	c := []int{0}
	for c[len(c)-1] < n {
		c = append(c, min(n, c[len(c)-1]+1+rng.Intn(max(1, n/2))))
	}
	return c
}

// The blas-level statement of "digests are layout-independent": one Dgemm
// over all of C and the same product computed sub-rectangle by sub-rectangle,
// on a random grid whose lines are not multiples of the micro-tile, agree to
// the bit. The last size runs the whole product on several workers and over
// more than one KC panel.
func TestDgemmTilingInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dims := [][3]int{{2*blockMC + 7, blockNC + 13, 2*blockKC + 5}}
	for i := 0; i < 40; i++ {
		dims = append(dims, [3]int{1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)})
	}
	for _, d := range dims {
		m, n, k := d[0], d[1], d[2]
		lda, ldb, ldc := k+rng.Intn(3), n+rng.Intn(3), n+rng.Intn(3)
		a, b, c0 := randSlice(m*lda, rng), randSlice(k*ldb, rng), randSlice(m*ldc, rng)
		whole := append([]float64(nil), c0...)
		if err := Dgemm(m, n, k, 0.7, a, lda, b, ldb, 1.3, whole, ldc); err != nil {
			t.Fatal(err)
		}
		tiled := append([]float64(nil), c0...)
		rows, cols := cuts(m, rng), cuts(n, rng)
		for ri := 1; ri < len(rows); ri++ {
			for ci := 1; ci < len(cols); ci++ {
				r0, c0 := rows[ri-1], cols[ci-1]
				if err := Dgemm(rows[ri]-r0, cols[ci]-c0, k, 0.7, a[r0*lda:], lda, b[c0:], ldb, 1.3, tiled[r0*ldc+c0:], ldc); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameBits(t, fmt.Sprintf("%v cut at rows %v cols %v", d, rows, cols), tiled, whole)
	}
}

// Both kernels propagate non-finite values the same way, a zero in A
// included: 0·Inf and 0·NaN are NaN, not skipped.
func TestKernelsPropagateNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n, k := 9, 11, 7
	a, b := randSlice(m*k, rng), randSlice(k*n, rng)
	a[2*k+3] = 0           // meets the Inf below: row 2, column 5 must be NaN
	b[3*n+5] = math.Inf(1) // column 5 is ±Inf or NaN in every row
	b[6*n+1] = math.NaN()  // column 1 is NaN in every row
	naive, blocked := make([]float64, m*n), make([]float64, m*n)
	if err := DgemmKernel(KernelNaive, m, n, k, 1, a, k, b, n, 0, naive, n); err != nil {
		t.Fatal(err)
	}
	if err := DgemmKernel(KernelBlocked, m, n, k, 1, a, k, b, n, 0, blocked, n); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(naive[2*n+5]) || !math.IsNaN(naive[1]) {
		t.Fatalf("reference kernel dropped 0·Inf or NaN: C[2,5]=%v C[0,1]=%v", naive[2*n+5], naive[1])
	}
	for i, want := range naive {
		if got := blocked[i]; math.IsNaN(got) != math.IsNaN(want) || (!math.IsNaN(want) && math.Abs(got-want) > 1e-12 && got != want) {
			t.Fatalf("blocked C[%d] = %v, reference has %v", i, got, want)
		}
	}
}

func TestGemmFlops(t *testing.T) {
	if f := GemmFlops(10, 20, 30); f != 12000 {
		t.Fatalf("GemmFlops = %v", f)
	}
}

func BenchmarkDgemmNaive256(b *testing.B)   { benchDgemm(b, KernelNaive, 256, 256, 256) }
func BenchmarkDgemmBlocked256(b *testing.B) { benchDgemm(b, KernelBlocked, 256, 256, 256) }
func BenchmarkDgemmBlocked512(b *testing.B) { benchDgemm(b, KernelBlocked, 512, 512, 512) }

// A rank's cell of the N=512 square-corner layout: fringes in both
// directions, two KC panels.
func BenchmarkDgemmBlockedCell(b *testing.B) { benchDgemm(b, KernelBlocked, 260, 180, 512) }

// BenchmarkMacroKernel times one macroKernel call on one goroutine over
// packed strips that fit L1 (an 8×24×128 block: 8 KiB of A, 24 KiB of B) and
// over ones that fit L2 but not L1 (128×192×256: 256 KiB of A, 384 KiB of
// B), so the two GFLOPS figures show what leaving L1 costs the kernel.
func BenchmarkMacroKernel(b *testing.B) {
	for _, sz := range []struct{ m, n, k int }{{8, 24, 128}, {128, 192, 256}} {
		b.Run(fmt.Sprintf("%dx%dx%d", sz.m, sz.n, sz.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			sa, sb := sz.k*microM, sz.k*microN
			pa, pb := randSlice(sa*Strips(sz.m), rng), randSlice(sb*Strips(sz.n), rng)
			c := make([]float64, sz.m*sz.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				macroKernel(sz.m, sz.n, sz.k, pa, sa, pb, sb, c, sz.n, true)
			}
			b.ReportMetric(GemmFlops(sz.m, sz.n, sz.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func benchDgemm(b *testing.B, kern Kernel, m, n, k int) {
	rng := rand.New(rand.NewSource(1))
	a := randSlice(m*k, rng)
	bb := randSlice(k*n, rng)
	c := make([]float64, m*n)
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DgemmKernel(kern, m, n, k, 1, a, k, bb, n, 0, c, n); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(GemmFlops(m, n, k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
