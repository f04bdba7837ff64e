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
	for _, l := range baselineLayouts(t) {
		n := l.N
		a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
		c := matrix.New(n, n)
		for i := range c.Data {
			c.Data[i] = math.NaN()
		}
		if _, err := Multiply(a, b, c, Config{Layout: l}); err != nil {
			t.Fatalf("n=%d %dx%d grid: %v", n, l.GridRows, l.GridCols, err)
		}
		sameBits(t, fmt.Sprintf("n=%d %dx%d grid (P=%d, owners %v)", n, l.GridRows, l.GridCols, l.P, l.Owner), c, oneRankProduct(t, a, b))
	}
}

// baselineLayouts returns the related-work baselines at small sizes: classic
// SUMMA (one block per processor row and column) at every N from pr·pc to
// pr·pc+23, and block-cyclic SUMMA with every block size 1–4 and block count
// max(pr, pc) to max(pr, pc)+3, on every pr×pc grid up to 3×3; then SUMMA at
// N = 30 on 2×3, N = 33 on 3×3 and N = 25 on 5×1, ten blocks of two on a 2×2
// grid, and N = 8 in three ragged blocks (3, 3, 2) on a 2×2 grid.
func baselineLayouts(t *testing.T) []*partition.Layout {
	var ls []*partition.Layout
	add := func(n, pr, pc, rowBlocks, colBlocks int) {
		l, err := partition.BlockCyclic(n, pr, pc, rowBlocks, colBlocks)
		if err != nil {
			t.Fatalf("BlockCyclic(%d, %d, %d, %d, %d): %v", n, pr, pc, rowBlocks, colBlocks, err)
		}
		ls = append(ls, l)
	}
	for pr := 1; pr <= 3; pr++ {
		for pc := 1; pc <= 3; pc++ {
			for n := pr * pc; n < pr*pc+24; n++ {
				add(n, pr, pc, pr, pc)
			}
			for bs := 1; bs <= 4; bs++ {
				for nb := max(pr, pc); nb < max(pr, pc)+4; nb++ {
					add(nb*bs, pr, pc, nb, nb)
				}
			}
		}
	}
	for _, g := range [][5]int{{30, 2, 3, 2, 3}, {33, 3, 3, 3, 3}, {25, 5, 1, 5, 1}, {20, 2, 2, 10, 10}, {8, 2, 2, 3, 3}} {
		add(g[0], g[1], g[2], g[3], g[4])
	}
	return ls
}
