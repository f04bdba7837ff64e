package summa25d

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

func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n, q, c, panel int
	}{
		{16, 2, 1, 4},  // degenerate to SUMMA
		{16, 2, 2, 4},  // 2 layers
		{30, 2, 3, 7},  // uneven blocks and layer ranges
		{24, 3, 2, 64}, // panel bigger than everything
		{25, 2, 4, 3},  // more layers than panel
	} {
		a := matrix.Random(tc.n, tc.n, rng)
		b := matrix.Random(tc.n, tc.n, rng)
		c := matrix.New(tc.n, tc.n)
		rep, err := Multiply(a, b, c, Config{Q: tc.q, C: tc.c, PanelSize: tc.panel})
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

func TestValidation(t *testing.T) {
	a := matrix.New(8, 8)
	if _, err := Multiply(nil, a, a, Config{Q: 2, C: 1}); err == nil {
		t.Fatal("nil matrix must fail")
	}
	if _, err := Multiply(a, a, a, Config{Q: 0, C: 1}); err == nil {
		t.Fatal("bad q must fail")
	}
	if _, err := Multiply(a, a, a, Config{Q: 2, C: 0}); err == nil {
		t.Fatal("bad c must fail")
	}
	small := matrix.New(2, 2)
	if _, err := Multiply(small, small, small, Config{Q: 3, C: 1}); err == nil {
		t.Fatal("N below grid must fail")
	}
	b := matrix.New(9, 9)
	if _, err := Multiply(a, b, a, Config{Q: 2, C: 1}); err == nil {
		t.Fatal("size mismatch must fail")
	}
}

func TestReplicationReducesPanelTraffic(t *testing.T) {
	// The 2.5D tradeoff: with the same per-layer grid, deeper replication
	// shrinks each layer's share of panel broadcasts. Compare the panel
	// traffic (total bytes minus the replication/reduction traffic is
	// awkward to separate, so compare against the c=1 run scaled): the
	// per-rank *maximum* comm time must not grow with c for a
	// compute-bound size, and panel broadcast rounds per rank shrink by
	// ~c.
	rng := rand.New(rand.NewSource(3))
	n := 64
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)

	run := func(c int) *Report {
		out := matrix.New(n, n)
		rep, err := Multiply(a, b, out, Config{Q: 4, C: c, PanelSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.EqualApprox(out, refMultiply(a, b), 1e-10) {
			t.Fatalf("c=%d: wrong result", c)
		}
		return rep
	}
	flat := run(1)
	deep := run(4)
	// Per-rank panel traffic in SUMMA is ~2·(n/q)·n elements; with c
	// layers each rank broadcasts only 1/c of the panels while paying
	// one block replication (2·(n/q)² elements) and one reduction
	// ((n/q)²). The panel term dominates once q is large enough
	// (q > ~1.5·c/(1−1/c)); at q=4, c=4 the per-rank traffic must drop.
	flatPerRank := flat.BytesMoved / 16 // q²·c = 16 ranks
	deepPerRank := deep.BytesMoved / 64 // 64 ranks
	if deepPerRank >= flatPerRank {
		t.Fatalf("per-rank traffic must shrink with replication: c=1 %d vs c=4 %d",
			flatPerRank, deepPerRank)
	}
}

func TestDegenerateC1MatchesSumma(t *testing.T) {
	// With C=1 the algorithm is plain SUMMA, whose block distribution is
	// the SummaGen layout BlockCyclic(n, 2, 2, 2, 2); both must agree on
	// identical inputs.
	rng := rand.New(rand.NewSource(5))
	n := 20
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	c1 := matrix.New(n, n)
	c2 := matrix.New(n, n)
	if _, err := Multiply(a, b, c1, Config{Q: 2, C: 1, PanelSize: 4}); err != nil {
		t.Fatal(err)
	}
	layout, err := partition.BlockCyclic(n, 2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Multiply(a, b, c2, core.Config{Layout: layout}); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(c1, c2, 1e-12) {
		t.Fatal("2.5D with C=1 must agree with SUMMA")
	}
}

// Property: correct for random grids, depths and panel sizes.
func TestQuickMatchesReference(t *testing.T) {
	f := func(seed int64, n8, q8, c8, panel8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		q := int(q8%3) + 1
		c := int(c8%3) + 1
		n := int(n8%20) + q*c + q // ensure N >= q and >= c
		panel := int(panel8%12) + 1
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		out := matrix.New(n, n)
		if _, err := Multiply(a, b, out, Config{Q: q, C: c, PanelSize: panel}); err != nil {
			return false
		}
		return matrix.EqualApprox(out, refMultiply(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
