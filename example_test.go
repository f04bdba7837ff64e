package summagen_test

import (
	"fmt"
	"log"

	summagen "repro"
)

// The basic workflow: split the workload by constant speeds, build a
// non-rectangular shape, multiply for real, and read the timings.
func Example() {
	n := 64
	areas, err := summagen.AreasCPM(n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		log.Fatal(err)
	}
	layout, err := summagen.NewLayout(summagen.SquareCorner, n, areas)
	if err != nil {
		log.Fatal(err)
	}
	a, b := summagen.RandomMatrix(n, 1), summagen.RandomMatrix(n, 2)
	c := summagen.NewMatrix(n, n)
	if _, err := summagen.Multiply(a, b, c, summagen.Config{Layout: layout}); err != nil {
		log.Fatal(err)
	}
	fmt.Println(layout.P, "processors,", layout.GridRows, "x", layout.GridCols, "grid")
	// Output: 3 processors, 3 x 3 grid
}

// Paper-scale problems run in simulation: a walk over the identical
// compiled schedule on virtual clocks over the modelled HCLServer1 devices.
func Example_simulate() {
	n := 25600
	pl := summagen.ConstantHCLServer1()
	areas, err := summagen.AreasCPM(n, pl.Speeds(0))
	if err != nil {
		log.Fatal(err)
	}
	layout, err := summagen.NewLayout(summagen.BlockRectangle, n, areas)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := summagen.Simulate(summagen.Config{Layout: layout, Platform: pl})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.ExecutionTime > 10, rep.GFLOPS > 1500)
	// Output: true true
}

// The paper's raw input arrays (Section IV) build layouts directly.
func Example_fromArrays() {
	layout, err := summagen.LayoutFromArrays(16, 3, 3, 3,
		[]int{0, 1, 1, 1, 1, 1, 1, 1, 2},
		[]int{9, 3, 4},
		[]int{9, 3, 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(layout.Areas())
	// Output: [81 159 16]
}

// The exact search reproduces the shape-optimality threshold: the
// square-corner shape wins at strong heterogeneity.
func Example_optimalShape() {
	n := 48
	areas, err := summagen.AreasCPM(n, []float64{12, 1, 1})
	if err != nil {
		log.Fatal(err)
	}
	best, _, err := summagen.OptimalShape(n, areas, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(best.Shape)
	// Output: square-corner
}
