// Package blockcyclic tests block-cyclic SUMMA (ScaLAPACK, Elemental),
// which has no engine of its own: block size bs on a pr×pc grid is the
// SummaGen layout partition.BlockCyclic(n, pr, pc, n/bs, n/bs), and
// core.Multiply runs it like any other layout. The layout's geometry is
// tested in internal/partition.
package blockcyclic

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

// multiply runs block-cyclic SUMMA with nb×nb blocks on a pr×pc grid
// through the SummaGen engine.
func multiply(a, b, c *matrix.Dense, pr, pc, nb int) (*core.Report, error) {
	l, err := partition.BlockCyclic(a.Rows, pr, pc, nb, nb)
	if err != nil {
		return nil, err
	}
	return core.Multiply(a, b, c, core.Config{Layout: l})
}

func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n, pr, pc, bs int
	}{
		{8, 2, 2, 2},
		{24, 2, 3, 4},
		{18, 3, 2, 3},
		{16, 1, 1, 4},
		{20, 2, 2, 2},
	} {
		a := matrix.Random(tc.n, tc.n, rng)
		b := matrix.Random(tc.n, tc.n, rng)
		c := matrix.New(tc.n, tc.n)
		rep, err := multiply(a, b, c, tc.pr, tc.pc, tc.n/tc.bs)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !matrix.EqualApprox(c, refMultiply(a, b), 1e-10) {
			t.Fatalf("%+v: result mismatch", tc)
		}
		if rep.ExecutionTime <= 0 {
			t.Fatalf("%+v: no execution time", tc)
		}
	}
}

func TestValidation(t *testing.T) {
	a := matrix.New(8, 8)
	l, err := partition.BlockCyclic(8, 2, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Multiply(nil, a, a, core.Config{Layout: l}); err == nil {
		t.Fatal("nil matrix must fail")
	}
	if _, err := multiply(a, a, a, 0, 2, 4); err == nil {
		t.Fatal("bad grid must fail")
	}
	if _, err := multiply(a, a, a, 2, 2, 0); err == nil {
		t.Fatal("no blocks must fail")
	}
	if _, err := multiply(a, a, a, 8, 8, 2); err == nil {
		t.Fatal("too few blocks for the grid must fail")
	}
	if _, err := multiply(a, a, a, 2, 2, 9); err == nil {
		t.Fatal("more blocks than N must fail")
	}
	b := matrix.New(9, 9)
	if _, err := core.Multiply(a, b, a, core.Config{Layout: l}); err == nil {
		t.Fatal("size mismatch must fail")
	}
	// N need not be a multiple of the block count: the first blocks take
	// the remainder (8 over 3 is 3, 3, 2).
	rng := rand.New(rand.NewSource(3))
	a, b = matrix.Random(8, 8, rng), matrix.Random(8, 8, rng)
	c := matrix.New(8, 8)
	if _, err := multiply(a, b, c, 2, 2, 3); err != nil {
		t.Fatalf("ragged blocks: %v", err)
	}
	if !matrix.EqualApprox(c, refMultiply(a, b), 1e-10) {
		t.Fatal("ragged blocks: result mismatch")
	}
}

// Property: block-cyclic SUMMA equals the reference for random shapes.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64, pr8, pc8, bs8, mult8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := int(pr8%3) + 1
		pc := int(pc8%3) + 1
		bs := int(bs8%4) + 1
		nb := max(pr, pc) + int(mult8%4)
		n := nb * bs
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		c := matrix.New(n, n)
		if _, err := multiply(a, b, c, pr, pc, nb); err != nil {
			t.Logf("N=%d %dx%d, %d blocks: %v", n, pr, pc, nb, err)
			return false
		}
		return matrix.EqualApprox(c, refMultiply(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
