// Package summa tests classic SUMMA (van de Geijn & Watts), which has no
// engine of its own: its block distribution is the SummaGen layout
// partition.BlockCyclic(n, pr, pc, pr, pc), one block per processor row
// and column, and core.Multiply runs it like any other layout.
package summa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

func refMultiply(a, b *matrix.Dense) *matrix.Dense {
	n := a.Rows
	c := matrix.New(n, n)
	if err := blas.DgemmKernel(blas.KernelNaive, n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride); err != nil {
		panic(err)
	}
	return c
}

// summaLayout is SUMMA's block distribution of n over a pr×pc grid.
func summaLayout(t *testing.T, n, pr, pc int) *partition.Layout {
	t.Helper()
	l, err := partition.BlockCyclic(n, pr, pc, pr, pc)
	if err != nil {
		t.Fatalf("BlockCyclic(%d, %d, %d, %d, %d): %v", n, pr, pc, pr, pc, err)
	}
	return l
}

// multiply runs SUMMA on a pr×pc grid through the SummaGen engine.
func multiply(a, b, c *matrix.Dense, pr, pc int) (*core.Report, error) {
	l, err := partition.BlockCyclic(a.Rows, pr, pc, pr, pc)
	if err != nil {
		return nil, err
	}
	return core.Multiply(a, b, c, core.Config{Layout: l})
}

func TestBlockRange(t *testing.T) {
	// 10 elements over 3 blocks: sizes 4, 3, 3, on the row side of a 3×1
	// grid and the column side of a 1×3 grid alike.
	rows, cols := summaLayout(t, 10, 3, 1), summaLayout(t, 10, 1, 3)
	for _, c := range [][3]int{{0, 0, 4}, {1, 4, 7}, {2, 7, 10}} {
		if s, e := rows.RowStart(c[0]), rows.RowStart(c[0])+rows.RowHeights[c[0]]; s != c[1] || e != c[2] {
			t.Fatalf("block row %d of 10 over 3 = [%d,%d), want [%d,%d)", c[0], s, e, c[1], c[2])
		}
		if s, e := cols.ColStart(c[0]), cols.ColStart(c[0])+cols.ColWidths[c[0]]; s != c[1] || e != c[2] {
			t.Fatalf("block column %d of 10 over 3 = [%d,%d), want [%d,%d)", c[0], s, e, c[1], c[2])
		}
	}
	even := summaLayout(t, 6, 3, 1)
	if s, e := even.RowStart(1), even.RowStart(1)+even.RowHeights[1]; s != 2 || e != 4 {
		t.Fatalf("even block row 1 of 6 over 3 = [%d,%d), want [2,4)", s, e)
	}
}

func TestOwnerOf(t *testing.T) {
	// 10 elements over 3 blocks: [0,4) [4,7) [7,10); on a 3×1 grid block
	// row b is rank b's.
	l := summaLayout(t, 10, 3, 1)
	for _, c := range [][3]int{{0, 0, 4}, {3, 0, 4}, {4, 1, 7}, {9, 2, 10}} {
		b := 0
		for b+1 < l.GridRows && l.RowStart(b+1) <= c[0] {
			b++
		}
		if end := l.RowStart(b) + l.RowHeights[b]; b != c[1] || end != c[2] {
			t.Fatalf("row %d of 10 over 3 lies in block %d ending at %d, want (%d,%d)", c[0], b, end, c[1], c[2])
		}
		if o := l.OwnerAt(b, 0); o != c[1] {
			t.Fatalf("block row %d owned by rank %d, want %d", b, o, c[1])
		}
	}
	// On a 2×3 grid block (I, J) is rank I·3 + J.
	g := summaLayout(t, 12, 2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if o := g.OwnerAt(i, j); o != i*3+j {
				t.Fatalf("2×3 block (%d,%d) owned by rank %d, want %d", i, j, o, i*3+j)
			}
		}
	}
}

func TestSummaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		n, pr, pc int
	}{
		{16, 2, 2},
		{30, 2, 3}, // uneven blocks
		{25, 5, 1},
		{33, 3, 3},
	} {
		a := matrix.Random(tc.n, tc.n, rng)
		b := matrix.Random(tc.n, tc.n, rng)
		c := matrix.New(tc.n, tc.n)
		rep, err := multiply(a, b, c, tc.pr, tc.pc)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !matrix.EqualApprox(c, refMultiply(a, b), 1e-10) {
			t.Fatalf("%+v: result mismatch", tc)
		}
		if rep.ExecutionTime <= 0 || rep.GFLOPS <= 0 {
			t.Fatalf("%+v: report incomplete: %+v", tc, rep)
		}
	}
}

func TestSummaSingleProc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := matrix.Random(12, 12, rng)
	b := matrix.Random(12, 12, rng)
	c := matrix.New(12, 12)
	if _, err := multiply(a, b, c, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(c, refMultiply(a, b), 1e-10) {
		t.Fatal("1x1 grid mismatch")
	}
}

func TestSummaValidation(t *testing.T) {
	a := matrix.New(8, 8)
	if _, err := multiply(a, a, a, 0, 1); err == nil {
		t.Fatal("bad grid must fail")
	}
	l := summaLayout(t, 8, 1, 1)
	if _, err := core.Multiply(nil, a, a, core.Config{Layout: l}); err == nil {
		t.Fatal("nil matrix must fail")
	}
	small := matrix.New(2, 2)
	if _, err := multiply(small, small, small, 3, 3); err == nil {
		t.Fatal("grid larger than N must fail")
	}
	b := matrix.New(9, 9)
	if _, err := core.Multiply(a, b, a, core.Config{Layout: l}); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

func TestSummaOverwritesC(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := matrix.Random(8, 8, rng)
	b := matrix.Random(8, 8, rng)
	c := matrix.Constant(8, 8, 123)
	if _, err := multiply(a, b, c, 2, 2); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(c, refMultiply(a, b), 1e-10) {
		t.Fatal("C must be overwritten, not accumulated")
	}
}

// Property: SUMMA agrees with the serial reference on random grids.
func TestQuickSummaMatchesReference(t *testing.T) {
	f := func(seed int64, n8, pr8, pc8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := int(pr8%3) + 1
		pc := int(pc8%3) + 1
		n := int(n8%24) + pr*pc // ensure N >= grid dims
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		c := matrix.New(n, n)
		if _, err := multiply(a, b, c, pr, pc); err != nil {
			t.Logf("N=%d %dx%d: %v", n, pr, pc, err)
			return false
		}
		return matrix.EqualApprox(c, refMultiply(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
