package blas_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
)

// packedKs are the depths the fuzzer picks from: around one step and around
// one and two KC panels.
var packedKs = []int{1, 2, 255, 256, 257, 511, 512, 513}

// packedBudget caps m·n·k per input, so that an input runs in milliseconds
// with an assembly body and in seconds with a software math.FMA.
const packedBudget = 1 << 24

// FuzzDgemmPacked: operands Put band by band into strips, in random runs of k
// as the engine's broadcasts land, and multiplied by DgemmPacked give the
// bits Dgemm gives on the row-major operands, under every body. The strips
// are NaN before the Puts, so a lane they miss shows; every padding lane
// must end up +0.
func FuzzDgemmPacked(f *testing.F) {
	for _, s := range []struct {
		seed           int64
		bandsA, bandsB uint8
		k              uint8
	}{
		{1, 0, 0, 0}, {2, 2, 1, 2}, {3, 1, 3, 3}, {4, 5, 4, 4},
		{5, 23, 23, 1}, {6, 0, 7, 5}, {7, 3, 0, 6}, {8, 11, 2, 7},
	} {
		f.Add(s.seed, s.bandsA, s.bandsB, s.k)
	}
	f.Fuzz(func(t *testing.T, seed int64, bandsA, bandsB, kPick uint8) {
		rng := rand.New(rand.NewSource(seed))
		k := packedKs[int(kPick)%len(packedKs)]
		heights := randomBands(rng, 1+int(bandsA)%24, 400)
		m := sum(heights)
		widths := randomBands(rng, 1+int(bandsB)%24, max(1, packedBudget/(m*k)))
		n := sum(widths)
		lda, ldb, ldc := k+rng.Intn(3), n+rng.Intn(3), n+rng.Intn(3)
		a, b := matrix.Random(m, lda, rng), matrix.Random(k, ldb, rng)
		pa, pb := putBands(t, rng, a, heights, k, true), putBands(t, rng, b, widths, k, false)
		what := fmt.Sprintf("heights %v widths %v k=%d", heights, widths, k)
		blas.RunBodies(t, func(t *testing.T) {
			want, got := nanSlice(m*ldc), nanSlice(m*ldc)
			if err := blas.Dgemm(m, n, k, 1, a.Data, lda, b.Data, ldb, 0, want, ldc); err != nil {
				t.Fatal(err)
			}
			if err := blas.DgemmPacked(heights, widths, k, pa, pb, got, ldc); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: C element %d (row %d, column %d) is %v, Dgemm gives %v", what, i, i/ldc, i%ldc, got[i], want[i])
				}
			}
		})
	})
}

// randomBands returns count band extents of 1–300, half of them within one
// of a multiple of a strip, stopping early once they reach total.
func randomBands(rng *rand.Rand, count, total int) []int {
	var bands []int
	for sum := 0; len(bands) < count && sum < total; {
		e := 1 + rng.Intn(300)
		if rng.Intn(2) == 0 {
			e = min(300, max(1, blas.StripWidth*(1+rng.Intn(300/blas.StripWidth))+rng.Intn(3)-1))
		}
		bands, sum = append(bands, e), sum+e
	}
	return bands
}

func sum(xs []int) (s int) {
	for _, x := range xs {
		s += x
	}
	return s
}

func nanSlice(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// putBands packs the bands of m — row bands of A (rows true) or column bands
// of B — into NaN-poisoned strips at stride StripWidth·k, each band as random
// runs of k Put one by one, and checks that no lane is left NaN and every
// padding lane is +0.
func putBands(t *testing.T, rng *rand.Rand, m *matrix.Dense, bands []int, k int, rows bool) []float64 {
	t.Helper()
	stride := blas.StripWidth * k
	strips := 0
	for _, e := range bands {
		strips += blas.Strips(e)
	}
	p := nanSlice(strips * stride)
	first, start := 0, 0
	for _, e := range bands {
		for k0 := 0; k0 < k; {
			k1 := min(k, k0+1+rng.Intn(k))
			off := first*stride + k0*blas.StripWidth
			if rows {
				src := matrix.Dense{Rows: e, Cols: k1 - k0, Stride: m.Stride, Data: m.Data[start*m.Stride+k0:]}
				if err := matrix.IntoRowStrips(p[off:], stride, e, k1-k0).Put(&src); err != nil {
					t.Fatal(err)
				}
			} else {
				src := matrix.Dense{Rows: k1 - k0, Cols: e, Stride: m.Stride, Data: m.Data[k0*m.Stride+start:]}
				if err := matrix.IntoColStrips(p[off:], stride, k1-k0, e).Put(&src); err != nil {
					t.Fatal(err)
				}
			}
			k0 = k1
		}
		// The last strip's lanes past e, at every step, are padding.
		last := (first + blas.Strips(e) - 1) * stride
		for l := 0; l < k; l++ {
			for lane := 0; lane < blas.StripWidth; lane++ {
				v := p[last+l*blas.StripWidth+lane]
				if pad := (blas.Strips(e)-1)*blas.StripWidth+lane >= e; pad && math.Float64bits(v) != 0 {
					t.Fatalf("band of %d: padding lane %d at step %d is %v, want +0", e, lane, l, v)
				}
			}
		}
		first, start = first+blas.Strips(e), start+e
	}
	for i, v := range p {
		if math.IsNaN(v) {
			t.Fatalf("bands %v k=%d: strip element %d was never written", bands, k, i)
		}
	}
	return p
}

// DgemmPacked never reads C: its first KC panel stores acc + 0 where a
// zeroed C would have added acc, which are the same bits. C starts NaN, and
// the operands hold rows whose products cancel to +0 within a panel, and a
// row and columns whose every product underflows to −0 (an FMA chain from +0
// ends at −0 there, and +0 + −0 is +0). The product must equal Dgemm with
// beta 0 into NaN and Dgemm with beta 1 into zeros, which adds every panel.
func TestDgemmPackedStoresFirstPanel(t *testing.T) {
	heights, widths := []int{13, 8, 3}, []int{16, 5, 9}
	m, n := sum(heights), sum(widths)
	blas.RunBodies(t, func(t *testing.T) {
		for _, k := range []int{1, 255, 256, 257, 512} {
			rng := rand.New(rand.NewSource(int64(k)))
			a, b := matrix.Random(m, k, rng), matrix.Random(k, n, rng)
			for l := 0; l < k; l++ {
				a.Data[1*k+l] = float64(1 - 2*(l%2)) // ±1 in turn: against paired columns, pairs cancel
				a.Data[2*k+l] = -1e-200              // tiny products round to −0
				a.Data[3*k+l] = math.Copysign(0, -1) // −0 times anything finite
				b.Data[l*n+2], b.Data[l*n+3] = 1e-200, 1e-200
				b.Data[l*n+4] = float64(1 + l/2) // equal in pairs of k
			}
			stride := blas.StripWidth * k
			var pa, pb []float64
			for i, h := range heights {
				band := make([]float64, blas.Strips(h)*stride)
				blas.PackA(band, stride, a.Data[sum(heights[:i])*k:], k, h, k, 1)
				pa = append(pa, band...)
			}
			for j, w := range widths {
				band := make([]float64, blas.Strips(w)*stride)
				blas.PackB(band, stride, b.Data[sum(widths[:j]):], n, k, w)
				pb = append(pb, band...)
			}
			got, stored, added := nanSlice(m*n), nanSlice(m*n), make([]float64, m*n)
			if err := blas.DgemmPacked(heights, widths, k, pa, pb, got, n); err != nil {
				t.Fatal(err)
			}
			if err := blas.Dgemm(m, n, k, 1, a.Data, k, b.Data, n, 0, stored, n); err != nil {
				t.Fatal(err)
			}
			if err := blas.Dgemm(m, n, k, 1, a.Data, k, b.Data, n, 1, added, n); err != nil {
				t.Fatal(err)
			}
			if k%2 == 0 && (added[1*n+4] != 0 || added[2*n+2] != 0) {
				t.Fatalf("k=%d: the cancelling and underflowing elements are %v and %v, want 0", k, added[1*n+4], added[2*n+2])
			}
			for i := range got {
				g, s, w := math.Float64bits(got[i]), math.Float64bits(stored[i]), math.Float64bits(added[i])
				if g != w || s != w {
					t.Fatalf("k=%d: C[%d,%d] is %#x from DgemmPacked and %#x from Dgemm with beta 0, Dgemm adding into zeros gives %#x", k, i/n, i%n, g, s, w)
				}
			}
		}
	})
}
