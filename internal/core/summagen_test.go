package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/hockney"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// refMultiply is the serial oracle.
func refMultiply(a, b *matrix.Dense) *matrix.Dense {
	n := a.Rows
	c := matrix.New(n, n)
	if err := blas.DgemmKernel(blas.KernelNaive, n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, c.Data, c.Stride); err != nil {
		panic(err)
	}
	return c
}

func buildLayout(t *testing.T, shape partition.Shape, n int, speeds []float64) *partition.Layout {
	t.Helper()
	areas, err := balance.Proportional(n*n, speeds)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(shape, n, areas)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func testPlatform(p int) *device.Platform {
	devs := make([]*device.Device, p)
	speeds := []float64{1.0, 2.0, 0.9, 1.5, 0.7}
	for i := range devs {
		devs[i] = &device.Device{
			Name:          "dev",
			PeakGFLOPS:    speeds[i%len(speeds)] * 10,
			DynamicPowerW: 100 + 10*float64(i),
			Speed:         fpm.Constant{S: speeds[i%len(speeds)]},
		}
	}
	return &device.Platform{
		Name:         "testpl",
		Devices:      devs,
		StaticPowerW: 230,
		Interconnect: hockney.IntraNode,
	}
}

func TestMultiplyAllShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 48
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	want := refMultiply(a, b)
	for _, shape := range partition.Shapes {
		l := buildLayout(t, shape, n, []float64{1.0, 2.0, 0.9})
		c := matrix.New(n, n)
		rep, err := Multiply(a, b, c, Config{Layout: l})
		if err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		if !matrix.EqualApprox(c, want, 1e-10) {
			t.Fatalf("%v: result mismatch, max diff %g", shape, matrix.MaxAbsDiff(c, want))
		}
		if rep.ExecutionTime <= 0 || rep.ComputeTime <= 0 {
			t.Fatalf("%v: missing timings %+v", shape, rep)
		}
	}
}

func TestMultiplyIdentity(t *testing.T) {
	n := 32
	a := matrix.Indexed(n, n)
	id := matrix.Identity(n)
	l := buildLayout(t, partition.SquareCorner, n, []float64{1, 1, 1})
	c := matrix.New(n, n)
	if _, err := Multiply(a, id, c, Config{Layout: l}); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(c, a, 1e-12) {
		t.Fatal("A·I must equal A")
	}
}

func TestMultiplyManualPaperLayout(t *testing.T) {
	// The exact Figure 1a arrays, exercised end to end.
	l, err := partition.FromArrays(16, 3, 3, 3,
		[]int{0, 1, 1, 1, 1, 1, 1, 1, 2},
		[]int{9, 3, 4},
		[]int{9, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a := matrix.Random(16, 16, rng)
	b := matrix.Random(16, 16, rng)
	c := matrix.New(16, 16)
	if _, err := Multiply(a, b, c, Config{Layout: l}); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(c, refMultiply(a, b), 1e-11) {
		t.Fatal("paper layout result mismatch")
	}
}

func TestMultiplyValidation(t *testing.T) {
	if _, err := Multiply(nil, nil, nil, Config{}); err == nil {
		t.Fatal("nil layout must fail")
	}
	l := buildLayout(t, partition.OneDRectangle, 16, []float64{1, 1, 1})
	a := matrix.New(16, 16)
	small := matrix.New(8, 8)
	if _, err := Multiply(a, a, small, Config{Layout: l}); err == nil {
		t.Fatal("shape mismatch must fail")
	}
	if _, err := Multiply(nil, a, a, Config{Layout: l}); err == nil {
		t.Fatal("nil matrix must fail")
	}
}

func TestSimulateRequiresPlatform(t *testing.T) {
	l := buildLayout(t, partition.SquareCorner, 64, []float64{1, 2, 0.9})
	if _, err := Simulate(Config{Layout: l}); err == nil {
		t.Fatal("Simulate without platform must fail")
	}
}

func TestSimulatePlatformSizeMismatch(t *testing.T) {
	l := buildLayout(t, partition.SquareCorner, 64, []float64{1, 2, 0.9})
	if _, err := Simulate(Config{Layout: l, Platform: testPlatform(2)}); err == nil {
		t.Fatal("platform/layout size mismatch must fail")
	}
}

func TestSimulateBasicInvariants(t *testing.T) {
	l := buildLayout(t, partition.SquareCorner, 1024, []float64{1, 2, 0.9})
	rep, err := Simulate(Config{Layout: l, Platform: testPlatform(3)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ExecutionTime <= 0 {
		t.Fatal("no execution time")
	}
	if rep.ComputeTime <= 0 || rep.CommTime <= 0 {
		t.Fatalf("breakdown missing: %+v", rep)
	}
	if rep.ExecutionTime < rep.ComputeTime {
		t.Fatalf("execution %v < compute %v", rep.ExecutionTime, rep.ComputeTime)
	}
	if rep.GFLOPS <= 0 {
		t.Fatal("GFLOPS missing")
	}
	if rep.DynamicEnergyJ <= 0 {
		t.Fatal("dynamic energy missing")
	}
	if len(rep.PerRank) != 3 {
		t.Fatalf("per-rank breakdowns: %d", len(rep.PerRank))
	}
}

func TestSimulateDeterministic(t *testing.T) {
	l := buildLayout(t, partition.SquareRectangle, 2048, []float64{1, 2, 0.9})
	run := func() *Report {
		rep, err := Simulate(Config{Layout: l, Platform: testPlatform(3)})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.ExecutionTime != r2.ExecutionTime || r1.CommTime != r2.CommTime || r1.DynamicEnergyJ != r2.DynamicEnergyJ {
		t.Fatalf("simulation not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestSimulateComputeMatchesModel(t *testing.T) {
	// With constant speeds and a proportional split, every rank's compute
	// time should be ≈ area_r * 2N / speed_r, and they should be equal.
	n := 4096
	pl := testPlatform(3)
	l := buildLayout(t, partition.OneDRectangle, n, []float64{1, 2, 0.9})
	rep, err := Simulate(Config{Layout: l, Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	areas := l.Areas()
	for r, b := range rep.PerRank {
		want := 2 * float64(areas[r]) * float64(n) / (pl.Devices[r].GFLOPS(0) * 1e9)
		if math.Abs(b.ComputeTime-want)/want > 1e-9 {
			t.Fatalf("rank %d compute %v, want %v", r, b.ComputeTime, want)
		}
	}
	// Proportional split on constant speeds balances compute times.
	c0 := rep.PerRank[0].ComputeTime
	for _, b := range rep.PerRank {
		if math.Abs(b.ComputeTime-c0)/c0 > 0.01 {
			t.Fatalf("compute times unbalanced: %+v", rep.PerRank)
		}
	}
}

func TestSimulatedShapesEqualComputeDifferentComm(t *testing.T) {
	// The headline CPM result: with constant speeds, the four shapes have
	// (nearly) identical computation times but different communication
	// times.
	n := 8192
	pl := testPlatform(3)
	speeds := []float64{1, 2, 0.9}
	var compTimes, commTimes []float64
	for _, shape := range partition.Shapes {
		l := buildLayout(t, shape, n, speeds)
		rep, err := Simulate(Config{Layout: l, Platform: pl})
		if err != nil {
			t.Fatal(err)
		}
		compTimes = append(compTimes, rep.ComputeTime)
		commTimes = append(commTimes, rep.CommTime)
	}
	for _, ct := range compTimes[1:] {
		if math.Abs(ct-compTimes[0])/compTimes[0] > 0.02 {
			t.Fatalf("compute times differ across shapes: %v", compTimes)
		}
	}
	// At least one pair of shapes must differ in comm time (the paper's
	// Figure 6c shows clearly distinct comm times).
	distinct := false
	for _, ct := range commTimes[1:] {
		if math.Abs(ct-commTimes[0])/commTimes[0] > 0.05 {
			distinct = true
		}
	}
	if !distinct {
		t.Fatalf("comm times suspiciously identical: %v", commTimes)
	}
}

func TestSimulateEnergyEqualAcrossShapes(t *testing.T) {
	// Figure 8: with CPM speeds the dynamic energies of the four shapes
	// are equal (same workload distribution, same compute times).
	n := 8192
	pl := testPlatform(3)
	var energies []float64
	for _, shape := range partition.Shapes {
		l := buildLayout(t, shape, n, []float64{1, 2, 0.9})
		rep, err := Simulate(Config{Layout: l, Platform: pl})
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, rep.DynamicEnergyJ)
	}
	for _, e := range energies[1:] {
		if math.Abs(e-energies[0])/energies[0] > 0.02 {
			t.Fatalf("dynamic energies differ across shapes: %v", energies)
		}
	}
}

func TestRealModeWithPlatformReportsEnergy(t *testing.T) {
	n := 32
	rng := rand.New(rand.NewSource(5))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	c := matrix.New(n, n)
	l := buildLayout(t, partition.BlockRectangle, n, []float64{1, 2, 0.9})
	rep, err := Multiply(a, b, c, Config{Layout: l, Platform: testPlatform(3)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DynamicEnergyJ <= 0 {
		t.Fatal("real mode with platform must account energy")
	}
}

func TestColumnBasedLayoutEndToEnd(t *testing.T) {
	// SummaGen is general: run a 5-processor column-based layout.
	n := 60
	areas, err := balance.Proportional(n*n, []float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.ColumnBased(n, areas)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	c := matrix.New(n, n)
	if _, err := Multiply(a, b, c, Config{Layout: l}); err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualApprox(c, refMultiply(a, b), 1e-10) {
		t.Fatal("column-based 5-processor result mismatch")
	}
}

// Property: SummaGen equals the serial product for random shapes, sizes
// and speed vectors.
func TestQuickMultiplyMatchesReference(t *testing.T) {
	f := func(seed int64, shapeIdx, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%40) + 9
		speeds := []float64{rng.Float64() + 0.2, rng.Float64() + 0.2, rng.Float64() + 0.2}
		areas, err := balance.Proportional(n*n, speeds)
		if err != nil {
			return false
		}
		shape := partition.Shapes[int(shapeIdx)%len(partition.Shapes)]
		l, err := partition.Build(shape, n, areas)
		if err != nil {
			return false
		}
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		c := matrix.New(n, n)
		if _, err := Multiply(a, b, c, Config{Layout: l}); err != nil {
			return false
		}
		return matrix.EqualApprox(c, refMultiply(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{N: 64, ExecutionTime: 1.5, ComputeTime: 1.2, CommTime: 0.3, GFLOPS: 350, DynamicEnergyJ: 42}
	s := r.String()
	for _, want := range []string{"N=64", "exec=1.5", "350.0 GFLOPS", "42.0J"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Report.String() = %q missing %q", s, want)
		}
	}
}
