package matrix

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blas"
)

// TestDestRunsCarryThePanel: for every form of Dest, with and without a
// fringe, a panel Put into one Dest and moved through its runs and fringe
// (the order a broadcast sends it in) into a NaN-filled second Dest leaves
// the second's storage bit-identical to the first's, padding zeros
// included; and the runs and fringe hold exactly Rows·Cols elements, in
// storage order, each full strip whole.
func TestDestRunsCarryThePanel(t *testing.T) {
	const gap = 3 // storage past the panel that neither side may touch
	rng := rand.New(rand.NewSource(5))
	type shape struct {
		name       string
		rows, cols int
	}
	for _, sh := range []shape{{"whole strips", 16, 5}, {"fringe", 19, 4}, {"fringe only", 3, 7}, {"one lane", 1, 1}, {"empty", 0, 4}} {
		src := Random(sh.rows, sh.cols, rng)
		for _, form := range []string{"row-major", "row-major contiguous", "row strips", "row strips touching", "column strips"} {
			var dest func(data []float64) Dest
			size := 0
			switch form {
			case "row-major":
				stride := sh.cols + 2
				size = sh.rows*stride + gap
				dest = func(data []float64) Dest {
					return Into(Dense{Rows: sh.rows, Cols: sh.cols, Stride: stride, Data: data})
				}
			case "row-major contiguous":
				size = sh.rows*sh.cols + gap
				dest = func(data []float64) Dest {
					return Into(Dense{Rows: sh.rows, Cols: sh.cols, Stride: sh.cols, Data: data})
				}
			case "row strips", "row strips touching":
				stride := blas.StripWidth * (sh.cols + 2)
				if form == "row strips touching" {
					stride = blas.StripWidth * sh.cols
				}
				size = blas.Strips(sh.rows)*stride + gap
				dest = func(data []float64) Dest { return IntoRowStrips(data, stride, sh.rows, sh.cols) }
			case "column strips":
				// A sh.cols×sh.rows panel: its sh.rows columns are the lanes.
				stride := blas.StripWidth * (sh.cols + 1)
				size = blas.Strips(sh.rows)*stride + gap
				dest = func(data []float64) Dest { return IntoColStrips(data, stride, sh.cols, sh.rows) }
			}
			panel := src
			if form == "column strips" {
				panel = Random(sh.cols, sh.rows, rng)
			}
			sent, got := filled(size, -1), filled(size, math.NaN())
			from, to := dest(sent), dest(got)
			if err := from.Put(panel); err != nil {
				t.Fatal(err)
			}
			runs, fringe := from.Runs(nil)
			buf := filled(fringe, math.NaN())
			from.GatherFringe(buf)
			wire := append(slices.Concat(runs...), buf...)
			if len(wire) != sh.rows*sh.cols {
				t.Fatalf("%s, %s: runs and fringe hold %d elements, want %d", sh.name, form, len(wire), sh.rows*sh.cols)
			}
			if form == "row strips touching" && len(runs) > 1 {
				t.Errorf("%s, %s: %d runs for strips that touch, want them merged", sh.name, form, len(runs))
			}
			if form == "row strips" {
				for s := 0; s < sh.rows/blas.StripWidth; s++ {
					strip := sent[s*blas.StripWidth*(sh.cols+2):][:blas.StripWidth*sh.cols]
					if !slices.Equal(wire[s*len(strip):][:len(strip)], strip) {
						t.Fatalf("%s, %s: strip %d does not travel whole and in place", sh.name, form, s)
					}
				}
			}
			into, n := to.Runs(nil)
			if n != fringe || len(into) != len(runs) {
				t.Fatalf("%s, %s: receiver has %d runs and fringe %d, sender %d and %d", sh.name, form, len(into), n, len(runs), fringe)
			}
			rest := wire
			for _, r := range into {
				rest = rest[copy(r, rest):]
			}
			to.ScatterFringe(rest)
			for i := range sent {
				if math.Float64bits(got[i]) != math.Float64bits(sent[i]) && !(sent[i] == -1 && math.IsNaN(got[i])) {
					t.Fatalf("%s, %s: element %d of storage is %v after the move, %v after Put", sh.name, form, i, got[i], sent[i])
				}
			}
		}
	}
}

// filled returns n copies of v.
func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
