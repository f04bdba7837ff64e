package netmpi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// benchLayouts builds the four paper shapes at size n for the relative
// speeds the engine benchmarks use.
func benchLayouts(t *testing.T, n int) []*partition.Layout {
	t.Helper()
	areas, err := balance.Proportional(n*n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var ls []*partition.Layout
	for _, sh := range partition.Shapes {
		l, err := partition.Build(sh, n, areas)
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
	}
	return ls
}

// runOverMesh runs core.RunRank on every endpoint, each rank with its own
// copies of A and B and its own NaN-poisoned C, and assembles C from the
// cells each rank owns.
func runOverMesh(t *testing.T, eps []*Endpoint, l *partition.Layout, a, b *matrix.Dense) *matrix.Dense {
	t.Helper()
	n := l.N
	cs := make([]*matrix.Dense, len(eps))
	runAll(t, eps, func(ep *Endpoint) error {
		c := matrix.New(n, n)
		for i := range c.Data {
			c.Data[i] = math.NaN()
		}
		cs[ep.Rank()] = c
		return core.RunRank(ep.Proc(), core.Config{Layout: l}, a.Clone(), b.Clone(), c)
	})
	got := matrix.New(n, n)
	for i := 0; i < l.GridRows; i++ {
		for j := 0; j < l.GridCols; j++ {
			h, w := l.RowHeights[i], l.ColWidths[j]
			src := cs[l.OwnerAt(i, j)].MustView(l.RowStart(i), l.ColStart(j), h, w)
			if err := matrix.CopyBlock(got.MustView(l.RowStart(i), l.ColStart(j), h, w), src, h, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	return got
}

// TestProductIsLayoutIndependentOverTCP is the exact-result contract over
// real sockets: on every paper shape the C assembled from the ranks' owned
// cells is bit-identical to a one-rank DGEMM.
func TestProductIsLayoutIndependentOverTCP(t *testing.T) {
	eps := localWorld(t, 3)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{64, 257} {
		a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
		want := matrix.New(n, n)
		if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
			t.Fatal(err)
		}
		for _, l := range benchLayouts(t, n) {
			got := runOverMesh(t, eps, l, a, b)
			for k := range want.Data {
				if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
					t.Fatalf("n=%d owners %v: C[%d,%d] = %v, one-rank DGEMM gives %v",
						n, l.Owner, k/n, k%n, got.Data[k], want.Data[k])
				}
			}
		}
	}
}
