package summagen

import (
	"math"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	n := 64
	areas, err := AreasCPM(n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(SquareCorner, n, areas)
	if err != nil {
		t.Fatal(err)
	}
	a, b := RandomMatrix(n, 1), RandomMatrix(n, 2)
	c := NewMatrix(n, n)
	rep, err := Multiply(a, b, c, Config{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GFLOPS <= 0 || rep.ExecutionTime <= 0 {
		t.Fatalf("report incomplete: %+v", rep)
	}
	// Spot-check one element against a manual dot product.
	var want float64
	for k := 0; k < n; k++ {
		want += a.At(3, k) * b.At(k, 5)
	}
	if math.Abs(c.At(3, 5)-want) > 1e-10 {
		t.Fatalf("C[3,5] = %v, want %v", c.At(3, 5), want)
	}
}

func TestSimulateOnHCLServer1(t *testing.T) {
	pl := ConstantHCLServer1()
	n := 25600
	areas, err := AreasCPM(n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewLayout(SquareRectangle, n, areas)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(Config{Layout: layout, Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the paper's execution times at N = 25600 are tens of
	// seconds, with GFLOPS in the 1.5-2.2 TFLOPS band.
	if rep.ExecutionTime < 5 || rep.ExecutionTime > 120 {
		t.Fatalf("execution time %v s implausible", rep.ExecutionTime)
	}
	if rep.GFLOPS < 1000 || rep.GFLOPS > 2500 {
		t.Fatalf("GFLOPS %v outside the plausible band", rep.GFLOPS)
	}
	if rep.DynamicEnergyJ <= 0 {
		t.Fatal("missing dynamic energy")
	}
}

func TestAreasFPMDefaultGranularity(t *testing.T) {
	pl := HCLServer1()
	models := make([]SpeedModel, 3)
	for i, d := range pl.Devices {
		models[i] = d.Speed
	}
	n := 4096
	areas, err := AreasFPM(n, models, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, a := range areas {
		sum += a
	}
	if sum != n*n {
		t.Fatalf("areas sum %d, want %d", sum, n*n)
	}
}

func TestParseShapeAndShapes(t *testing.T) {
	if len(Shapes) != 4 {
		t.Fatalf("Shapes = %v", Shapes)
	}
	s, err := ParseShape("block-rectangle")
	if err != nil || s != BlockRectangle {
		t.Fatal("ParseShape failed")
	}
}

func TestLayoutFromArraysFacade(t *testing.T) {
	l, err := LayoutFromArrays(16, 3, 1, 3, []int{0, 1, 2}, []int{16}, []int{8, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.Areas()[0] != 128 {
		t.Fatal("facade layout wrong")
	}
}

func TestColumnBasedLayoutFacade(t *testing.T) {
	l, err := ColumnBasedLayout(12, []int{36, 36, 36, 36})
	if err != nil {
		t.Fatal(err)
	}
	if l.P != 4 {
		t.Fatal("column-based facade wrong")
	}
}

func TestOptimalShapeFacade(t *testing.T) {
	areas, err := AreasCPM(48, []float64{10, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	best, fams, err := OptimalShape(48, areas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Layout == nil || len(fams) == 0 {
		t.Fatal("search incomplete")
	}
	r, err := OptimalityRatio(best.Layout)
	if err != nil || r < 1 {
		t.Fatalf("ratio %v err %v", r, err)
	}
	lb, err := HalfPerimeterLowerBound(areas)
	if err != nil || lb <= 0 {
		t.Fatalf("bound %v err %v", lb, err)
	}
}

func TestMemoryFacade(t *testing.T) {
	areas, err := AreasCPM(8192, []float64{1, 2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayout(SquareRectangle, 8192, areas)
	if err != nil {
		t.Fatal(err)
	}
	if MemoryEstimate(l, 0) <= 0 {
		t.Fatal("estimate missing")
	}
	if err := CheckMemory(l, HCLServer1()); err != nil {
		t.Fatalf("N=8192 must fit: %v", err)
	}
}

func TestNRRPLayoutFacade(t *testing.T) {
	areas, err := AreasCPM(64, []float64{5, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NRRPLayout(64, areas)
	if err != nil {
		t.Fatal(err)
	}
	if l.P != 4 {
		t.Fatalf("P = %d", l.P)
	}
}

func TestExtendedShapesFacade(t *testing.T) {
	if len(ExtendedShapes) != 5 || ExtendedShapes[4] != LRectangle {
		t.Fatalf("ExtendedShapes = %v", ExtendedShapes)
	}
}
