package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// benchSpeeds are the relative speeds the engine benchmarks balance their
// layouts for; the schedule counts below are counted on these layouts.
var benchSpeeds = []float64{1.0, 2.0, 0.9}

// oneRankProduct is the exact oracle: one blas.Dgemm over the whole
// matrices, with the engine's default kernel.
func oneRankProduct(t testing.TB, a, b *matrix.Dense) *matrix.Dense {
	t.Helper()
	n := a.Rows
	c := matrix.New(n, n)
	if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride); err != nil {
		t.Fatal(err)
	}
	return c
}

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t testing.TB, what string, got, want *matrix.Dense) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: C[%d,%d] = %v, one-rank DGEMM gives %v", what, i, j, g, w)
			}
		}
	}
}

// contractLayouts returns the layouts the exact-result contract is checked
// on at size n: the four paper shapes and the L rectangle, three
// block-cyclic grids (2D, and a column-cyclic one whose block columns each
// belong to one rank) and 40 random layouts at P = 1..6.
func contractLayouts(t *testing.T, n int, rng *rand.Rand) []*partition.Layout {
	var ls []*partition.Layout
	for _, sh := range partition.ExtendedShapes {
		ls = append(ls, buildLayout(t, sh, n, benchSpeeds))
	}
	for _, g := range [][4]int{{2, 2, 2, 2}, {2, 3, 6, 9}, {1, 3, 4, 7}} {
		l, err := partition.BlockCyclic(n, g[0], g[1], g[2], g[3])
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
	}
	for k := 0; k < 40; k++ {
		ls = append(ls, randomLayout(rng, n, 1+k%6))
	}
	return ls
}

// TestProductIsLayoutIndependent is the engine's exact-result contract: on
// every layout C is bit-identical to a one-rank DGEMM, because each element
// of C comes from exactly one DGEMM over the whole k range and the kernel's
// result for C[i,j] depends only on row i of A, column j of B and the
// kernel's KC — never on how the owned region is tiled into calls. C is
// NaN-poisoned first, so an element no rank writes fails too.
func TestProductIsLayoutIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{33, 64, 100, 257, 300} {
		a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
		want := oneRankProduct(t, a, b)
		c := matrix.New(n, n)
		for k, l := range contractLayouts(t, n, rng) {
			for i := range c.Data {
				c.Data[i] = math.NaN()
			}
			if _, err := Multiply(a, b, c, Config{Layout: l}); err != nil {
				t.Fatalf("n=%d layout %d: %v", n, k, err)
			}
			sameBits(t, fmt.Sprintf("n=%d layout %d (P=%d, owners %v)", n, k, l.P, l.Owner), c, want)
		}
	}
}
