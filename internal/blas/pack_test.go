package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// poison fills destinations before a pack: a signalling NaN, which no
// arithmetic produces and no test input holds, so a lane that still holds it
// was never written.
var poison = math.Float64frombits(0x7ff00000deadbeef)

// packSizes are the extents the pack tests take: around one strip (and one
// 8-column block of the AVX-512 transpose) and around eight.
var packSizes = []int{1, 7, 8, 9, 63, 64, 65}

// packAlphas are the scale factors PackA is tried with. The NaN is the same
// NaN the inputs hold: where both factors of a product are NaN, which one's
// payload survives is the CPU's choice, not the writer's.
var packAlphas = []float64{1, -0.5, 0, math.NaN(), math.Inf(1), math.Inf(-1)}

// packValue returns a random element for a pack input: mostly finite, with
// NaN, ±0, ±Inf and subnormals mixed in.
func packValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return float64(1-2*rng.Intn(2)) * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	}
	return 2*rng.Float64() - 1
}

// checkPack packs the m×kc block of a (leading dimension lda) with PackA and
// the kc×m block of the same elements seen as B (leading dimension lda) with
// PackB, at strip stride 8·kc+gap, into poisoned destinations, and requires
// the bits packAGo and packBGo give: the same values, the same lanes written,
// the gaps between strips untouched and every padding lane +0.
func checkPack(t *testing.T, m, kc, lda, gap int, alpha float64, src []float64) {
	t.Helper()
	stride := kc*StripWidth + gap
	size := Strips(m) * stride
	for _, w := range []struct {
		name      string
		pack, ref func(dst []float64)
		rows      int // the extent packed into strips: rows of A, columns of B
	}{
		{"PackA", func(d []float64) { PackA(d, stride, src, lda, m, kc, alpha) },
			func(d []float64) { packAGo(d, stride, src, lda, m, kc, alpha) }, m},
		{"PackB", func(d []float64) { PackB(d, stride, src, lda, kc, m) },
			func(d []float64) { packBGo(d, stride, src, lda, kc, m) }, m},
	} {
		got, want := make([]float64, size), make([]float64, size)
		for i := range got {
			got[i], want[i] = poison, poison
		}
		w.pack(got)
		w.ref(want)
		what := fmt.Sprintf("%s m=%d kc=%d lda=%d gap=%d alpha=%v", w.name, m, kc, lda, gap, alpha)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d (strip %d, offset %d) is %#x, the Go writer gives %#x",
					what, i, i/stride, i%stride, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			s, o := i/stride, i%stride
			untouched := math.Float64bits(got[i]) == math.Float64bits(poison)
			switch {
			case o >= kc*StripWidth:
				if !untouched {
					t.Fatalf("%s: gap element %d (strip %d, offset %d) was written", what, i, s, o)
				}
			case untouched:
				t.Fatalf("%s: element %d (strip %d, offset %d) was never written", what, i, s, o)
			case s*StripWidth+o%StripWidth >= w.rows && math.Float64bits(got[i]) != 0:
				t.Fatalf("%s: padding lane %d of strip %d at step %d is %v, want +0", what, o%StripWidth, s, o/StripWidth, got[i])
			}
		}
	}
}

// PackA and PackB under every body give the Go writers' bits on every size
// around a strip, padded leading dimensions, strip strides above 8·kc,
// every special scale factor and special values in the input.
func TestPackBodies(t *testing.T) {
	runBodies(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, m := range packSizes {
			for _, kc := range packSizes {
				for _, alpha := range packAlphas {
					ld, gap := max(m, kc)+rng.Intn(4), []int{0, 1, 8, 13}[rng.Intn(4)]
					src := make([]float64, max(m, kc)*ld)
					for i := range src {
						src[i] = packValue(rng)
					}
					checkPack(t, m, kc, ld, gap, alpha, src)
				}
			}
		}
	})
}

// FuzzPack is TestPackBodies over random sizes up to 130, leading-dimension
// pads, strip gaps and scale factors.
func FuzzPack(f *testing.F) {
	for _, s := range []struct {
		seed                      int64
		m, kc, pad, gap, alphaIdx uint8
	}{
		{1, 1, 1, 0, 0, 0}, {2, 8, 8, 0, 0, 1}, {3, 9, 7, 3, 5, 2}, {4, 64, 65, 1, 8, 3},
		{5, 65, 64, 2, 0, 4}, {6, 7, 129, 0, 3, 5}, {7, 130, 9, 5, 1, 1},
	} {
		f.Add(s.seed, s.m, s.kc, s.pad, s.gap, s.alphaIdx)
	}
	f.Fuzz(func(t *testing.T, seed int64, m, kc, pad, gap, alphaIdx uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+int(m)%130, 1+int(kc)%130
		ld := max(rows, cols) + int(pad)%9
		src := make([]float64, max(rows, cols)*ld)
		for i := range src {
			src[i] = packValue(rng)
		}
		runBodies(t, func(t *testing.T) {
			checkPack(t, rows, cols, ld, int(gap)%17, packAlphas[int(alphaIdx)%len(packAlphas)], src)
		})
	})
}

// BenchmarkPackA and BenchmarkPackB time the strip writers under each body on
// a 256×512 band and a 176×176 panel of an N = 512 matrix, beside copy of the
// same bytes; b.SetBytes makes the output read bytes/s.
func BenchmarkPackA(b *testing.B) {
	benchPack(b, func(dst, src []float64, ld, rows, cols int) {
		PackA(dst, cols*StripWidth, src, ld, rows, cols, 1)
	})
}

func BenchmarkPackB(b *testing.B) {
	benchPack(b, func(dst, src []float64, ld, rows, cols int) {
		PackB(dst, rows*StripWidth, src, ld, rows, cols)
	})
}

// benchPack runs pack over rows×cols blocks of a 512-wide matrix.
func benchPack(b *testing.B, pack func(dst, src []float64, ld, rows, cols int)) {
	const ld = 512
	src := randSlice(ld*ld, rand.New(rand.NewSource(29)))
	for _, d := range []struct{ rows, cols int }{{256, 512}, {176, 176}} {
		name := fmt.Sprintf("%dx%d", d.rows, d.cols)
		dst := make([]float64, (d.rows+StripWidth)*(d.cols+StripWidth)) // room for either writer's padding
		b.Run("copy/"+name, func(b *testing.B) {
			b.SetBytes(int64(8 * d.rows * d.cols))
			for i := 0; i < b.N; i++ {
				for r := 0; r < d.rows; r++ {
					copy(dst[r*d.cols:][:d.cols], src[r*ld:])
				}
			}
		})
		benchBodies(b, name, func(b *testing.B) {
			b.SetBytes(int64(8 * d.rows * d.cols))
			for i := 0; i < b.N; i++ {
				pack(dst, src, ld, d.rows, d.cols)
			}
		})
	}
}
