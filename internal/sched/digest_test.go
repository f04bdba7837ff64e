package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/slab"
)

// TestMatrixDigestGolden pins the digest definition: lanes, primes,
// rotations, the element-count fold, the avalanche and the hex encoding. The
// value was cross-checked against an independent implementation of the
// definition in MatrixDigest's doc comment.
func TestMatrixDigestGolden(t *testing.T) {
	if got, want := MatrixDigest(matrix.Indexed(3, 5)), "8e4cc51a940bf0fe"; got != want {
		t.Fatalf("MatrixDigest(Indexed(3, 5)) = %s, want %s", got, want)
	}
}

// TestMatrixDigestIgnoresStride: a view inside a larger matrix digests like
// its compact copy.
func TestMatrixDigestIgnoresStride(t *testing.T) {
	big := matrix.Random(10, 13, rand.New(rand.NewSource(1)))
	for _, v := range [][4]int{{2, 3, 5, 7}, {0, 0, 10, 12}, {1, 1, 9, 1}, {4, 2, 1, 11}} {
		view := big.MustView(v[0], v[1], v[2], v[3])
		compact := view.Clone()
		if compact.Stride != compact.Cols || view.Stride == view.Cols {
			t.Fatalf("view %v: strides %d (view) and %d (copy)", v, view.Stride, compact.Stride)
		}
		if got, want := MatrixDigest(view), MatrixDigest(compact); got != want {
			t.Errorf("view %v: digest %s, its compact copy %s", v, got, want)
		}
	}
}

// TestMatrixDigestSensitivity: every single-bit flip at a seeded sample of
// (element, bit) positions gives a digest of its own, as does swapping two
// unequal elements (in one lane, in neighbouring lanes, across rows), and
// +0 digests unlike −0.
func TestMatrixDigestSensitivity(t *testing.T) {
	const n, flips = 64, 600
	m := matrix.Random(n, n, rand.New(rand.NewSource(2)))
	base := MatrixDigest(m)
	seen := map[string]string{base: "original"}
	rng := rand.New(rand.NewSource(3))
	for f := 0; f < flips; f++ {
		k, bit := rng.Intn(n*n), uint(rng.Intn(64))
		if f < 64 {
			bit = uint(f) // every bit position at least once
		}
		old := m.Data[k]
		m.Data[k] = math.Float64frombits(math.Float64bits(old) ^ 1<<bit)
		d := MatrixDigest(m)
		m.Data[k] = old
		what := fmt.Sprintf("bit %d of element %d", bit, k)
		if prev, dup := seen[d]; dup && prev != what {
			t.Fatalf("flipping %s gives digest %s, as does %s", what, d, prev)
		}
		seen[d] = what
	}

	for _, p := range [][2]int{{0, 1}, {0, 4}, {5, 9}, {3, 3 + n}, {0, n*n - 1}, {n - 1, n}} {
		i, j := p[0], p[1]
		if m.Data[i] == m.Data[j] {
			t.Fatalf("elements %d and %d are equal", i, j)
		}
		m.Data[i], m.Data[j] = m.Data[j], m.Data[i]
		d := MatrixDigest(m)
		m.Data[i], m.Data[j] = m.Data[j], m.Data[i]
		if d == base {
			t.Errorf("swapping elements %d and %d leaves the digest at %s", i, j, d)
		}
	}

	pos, neg := matrix.New(3, 3), matrix.New(3, 3)
	neg.Data[4] = math.Copysign(0, -1)
	if MatrixDigest(pos) == MatrixDigest(neg) {
		t.Errorf("+0 and -0 share digest %s", MatrixDigest(pos))
	}
}

// TestJobOperandsGolden pins the operand stream: A's first values, and B's,
// which continue the stream after A's N² elements.
func TestJobOperandsGolden(t *testing.T) {
	a, b, _ := jobOperands(4, 42)
	for _, c := range []struct {
		name string
		got  []float64
		want []float64
	}{
		{"A", a.Data[:4], []float64{0.36164817207766253, 0.8265392571869998, 0.5886028190936035, 0.8372100150191819}},
		{"B", b.Data[:2], []float64{-0.6359744731850683, -0.010715390680967607}},
	} {
		for i, w := range c.want {
			if c.got[i] != w {
				t.Errorf("%s[%d] = %v, want %v", c.name, i, c.got[i], w)
			}
		}
	}
}

// TestJobOperandsRange: every operand lies in [−1, 1), and the values reach
// both ends of the interval.
func TestJobOperandsRange(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64} {
		a, b, _ := jobOperands(64, seed)
		lo, hi := 1.0, -1.0
		for _, v := range append(append([]float64(nil), a.Data...), b.Data...) {
			if !(v >= -1 && v < 1) {
				t.Fatalf("seed %d: operand %v outside [-1, 1)", seed, v)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
		if lo > -0.99 || hi < 0.99 {
			t.Errorf("seed %d: operands span only [%v, %v]", seed, lo, hi)
		}
	}
}

// TestJobOperandsAreCounterBased: element k of the stream depends only on
// (seed, k). The operands of an N = 8 job are prefixes of an N = 16 job's A:
// A₈ is A₁₆'s first 64 elements and B₈ the next 64.
func TestJobOperandsAreCounterBased(t *testing.T) {
	const seed = 7
	a8, b8, _ := jobOperands(8, seed)
	a16, _, _ := jobOperands(16, seed)
	for k := 0; k < 64; k++ {
		if math.Float64bits(a8.Data[k]) != math.Float64bits(a16.Data[k]) {
			t.Fatalf("A8[%d] = %v, A16[%d] = %v", k, a8.Data[k], k, a16.Data[k])
		}
		if math.Float64bits(b8.Data[k]) != math.Float64bits(a16.Data[64+k]) {
			t.Fatalf("B8[%d] = %v, A16[%d] = %v", k, b8.Data[k], 64+k, a16.Data[64+k])
		}
	}
}

// TestJobOperandsIgnoreRecycledContents: operands drawn into NaN-poisoned
// recycled buffers equal the ones drawn into fresh memory, bit for bit.
func TestJobOperandsIgnoreRecycledContents(t *testing.T) {
	const n, seed = 48, 5
	a, b, c := jobOperands(n, seed)
	want := [2][]float64{append([]float64(nil), a.Data...), append([]float64(nil), b.Data...)}
	slab.Put(a.Data)
	slab.Put(b.Data)
	slab.Put(c.Data)

	var mu sync.Mutex
	poisoned := map[*float64]bool{}
	defer slab.SetReuseHook(func(s []float64) {
		mu.Lock()
		poisoned[&s[:1][0]] = true
		mu.Unlock()
		for i := range s {
			s[i] = math.NaN()
		}
	})()
	a, b, _ = jobOperands(n, seed)
	mu.Lock()
	defer mu.Unlock()
	for k, m := range []*matrix.Dense{a, b} {
		if !poisoned[&m.Data[0]] {
			t.Errorf("operand %c was not a recycled buffer", "AB"[k])
		}
		for i, v := range m.Data {
			if math.Float64bits(v) != math.Float64bits(want[k][i]) {
				t.Fatalf("operand %c[%d] = %v from a poisoned buffer, %v from a fresh one", "AB"[k], i, v, want[k][i])
			}
		}
	}
}

// TestVerifyOnPoisonedReference: the verify path's reference product comes
// from the slab free list; with every recycled buffer NaN-filled, verified
// jobs still verify, because DGEMM with β = 0 overwrites all of it.
func TestVerifyOnPoisonedReference(t *testing.T) {
	defer slab.SetReuseHook(func(s []float64) {
		for i := range s {
			s[i] = math.NaN()
		}
	})()
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
	})
	spec := JobSpec{N: 64, Shape: "square-corner", Seed: 3, Verify: true}
	for _, v := range runSpecs(t, s, []JobSpec{spec, spec, spec}) {
		if !v.Verified {
			t.Errorf("job %s: not verified (err %v)", v.ID, v.Err)
		}
	}
}

// TestOneDigestPerNSeed: jobs with equal (N, seed) share one digest under
// the four paper shapes and the planner's own choice, on both runners — the
// exact-result contract (DESIGN.md §6) seen from the service.
func TestOneDigestPerNSeed(t *testing.T) {
	shapes := []string{"square-corner", "square-rectangle", "block-rectangle", "1d-rectangle", "auto"}
	for _, n := range []int{64, 100} {
		specs := make([]JobSpec, len(shapes))
		for i, shape := range shapes {
			specs[i] = JobSpec{N: n, Shape: shape, Seed: 11}
		}
		where := map[string][]string{} // digest → runner/shape pairs that gave it
		for _, tc := range []struct {
			name   string
			runner Runner
		}{
			{"inproc", &InprocRunner{}},
			{"netmpi", &NetmpiRunner{OpTimeout: 10 * time.Second}},
		} {
			s := newTestScheduler(t, func(c *Config) {
				c.Runner = tc.runner
			})
			for i, v := range runSpecs(t, s, specs) {
				if shapes[i] != "auto" && v.Plan.Shape != shapes[i] {
					t.Errorf("N=%d %s: planned %s", n, shapes[i], v.Plan.Shape)
				}
				where[v.Digest] = append(where[v.Digest], tc.name+"/"+v.Plan.Shape)
			}
		}
		if len(where) != 1 {
			t.Errorf("N=%d: %d digests for one (N, seed): %v", n, len(where), where)
		}
	}
}

func BenchmarkMatrixDigest(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m, _, _ := jobOperands(n, 1)
			b.SetBytes(int64(8 * n * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatrixDigest(m)
			}
		})
	}
}

func BenchmarkJobOperands(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * 8 * n * n)) // A and B are filled
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, bm, c := jobOperands(n, int64(i))
				slab.Put(a.Data)
				slab.Put(bm.Data)
				slab.Put(c.Data)
			}
		})
	}
}
