// Command partview renders the four partition shapes for a given matrix
// size and processor speed vector, together with the partition-quality
// metrics the paper's theory thread optimizes (areas, covering rectangles,
// half-perimeters, SummaGen communication volumes).
//
// Example:
//
//	partview -n 64 -speeds 1.0,2.0,0.9
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/balance"
	"repro/internal/partition"
)

func main() {
	var (
		n         = flag.Int("n", 32, "matrix dimension N")
		speedsArg = flag.String("speeds", "1.0,2.0,0.9", "relative processor speeds (comma separated, 3 values)")
		cells     = flag.Int("cells", 32, "rendering resolution (characters per side)")
		extended  = flag.Bool("extended", false, "also render the L rectangle, NRRP, and the exact optimum")
	)
	flag.Parse()
	if err := run(*n, *speedsArg, *cells, *extended); err != nil {
		fmt.Fprintln(os.Stderr, "partview:", err)
		os.Exit(1)
	}
}

func run(n int, speedsArg string, cells int, extended bool) error {
	speeds, err := balance.ParseSpeeds(speedsArg)
	if err != nil {
		return err
	}
	areas, err := balance.Proportional(n*n, speeds)
	if err != nil {
		return err
	}
	fmt.Printf("N=%d speeds=%v → target areas %v\n\n", n, speeds, areas)
	shapes := partition.Shapes
	if extended {
		shapes = partition.ExtendedShapes
	}
	for _, shape := range shapes {
		l, err := partition.Build(shape, n, areas)
		if err != nil {
			return fmt.Errorf("%v: %w", shape, err)
		}
		fmt.Printf("%v  (grid %dx%d)\n", shape, l.GridRows, l.GridCols)
		fmt.Print(l.Render(cells))
		got := l.Areas()
		vols := l.CommVolumes()
		for r := 0; r < l.P; r++ {
			h, w := l.CoveringRect(r)
			fmt.Printf("  P%d: area %6d  covering %3dx%-3d  half-perimeter %4d  comm volume %7d elems\n",
				r, got[r], h, w, l.HalfPerimeter(r), vols[r])
		}
		ratio, err := partition.OptimalityRatio(l)
		if err != nil {
			return err
		}
		fmt.Printf("  total half-perimeter: %d (%.3f× the lower bound)\n\n", l.TotalHalfPerimeter(), ratio)
	}
	if extended {
		nr, err := partition.NRRP(n, areas)
		if err != nil {
			return err
		}
		nrRatio, err := partition.OptimalityRatio(nr)
		if err != nil {
			return err
		}
		fmt.Printf("NRRP (grid %dx%d)\n%s  total half-perimeter: %d (%.3f× the lower bound)\n\n",
			nr.GridRows, nr.GridCols, nr.Render(cells), nr.TotalHalfPerimeter(), nrRatio)
		if len(areas) == 3 {
			best, _, err := partition.OptimalShape(n, areas, 0)
			if err != nil {
				return err
			}
			fmt.Printf("exact optimum: %v with communication volume %d elements\n%s",
				best.Shape, best.Volume, best.Layout.Render(cells))
		}
	}
	return nil
}
