// Package summa tests classic SUMMA (van de Geijn & Watts), which has no
// engine of its own: its block distribution is the SummaGen layout
// partition.BlockCyclic(n, pr, pc, pr, pc), one block per processor row
// and column, and core.Multiply runs it like any other layout. The layout's
// geometry is tested in internal/partition.
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
