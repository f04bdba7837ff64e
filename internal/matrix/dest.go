package matrix

import (
	"fmt"

	"repro/internal/blas"
)

// Dest is where a panel copy lands: Rows×Cols elements stored either as a
// row-major view or as a band of packed strips, the operand format the DGEMM
// micro-kernel reads (package blas). A broadcast hands its destination
// around as a Dest and writes it with Put, whatever its form, so a runtime
// never needs to know how the engine keeps its working matrices.
type Dest struct {
	Rows, Cols int
	form       form
	stride     int // row stride, or strip stride
	data       []float64
}

// form is how a Dest stores its elements.
type form uint8

const (
	rowMajor  form = iota
	rowStrips      // rows packed into strips (blas.PackA): a band of WA
	colStrips      // columns packed into strips (blas.PackB): a band of WB
)

// Into returns the Dest that writes the view d.
func Into(d Dense) Dest {
	return Dest{Rows: d.Rows, Cols: d.Cols, stride: d.Stride, data: d.Data}
}

// IntoRowStrips returns the Dest that packs a rows×cols panel into strips of
// rows: column l of strip s's rows goes to data[s*stride+l*blas.StripWidth:].
// data starts at the first strip and the panel's first column.
func IntoRowStrips(data []float64, stride, rows, cols int) Dest {
	return Dest{Rows: rows, Cols: cols, form: rowStrips, stride: stride, data: data}
}

// IntoColStrips returns the Dest that packs a rows×cols panel into strips of
// columns: row l of strip t's columns goes to data[t*stride+l*blas.StripWidth:].
// data starts at the first strip and the panel's first row.
func IntoColStrips(data []float64, stride, rows, cols int) Dest {
	return Dest{Rows: rows, Cols: cols, form: colStrips, stride: stride, data: data}
}

// Put writes the Rows×Cols block at the origin of from into d.
func (d Dest) Put(from *Dense) error {
	if d.Rows < 0 || d.Cols < 0 || d.Rows > from.Rows || d.Cols > from.Cols {
		return fmt.Errorf("%w: Put %dx%d from %dx%d", ErrShape, d.Rows, d.Cols, from.Rows, from.Cols)
	}
	switch d.form {
	case rowStrips:
		blas.PackA(d.data, d.stride, from.Data, from.Stride, d.Rows, d.Cols, 1)
	case colStrips:
		blas.PackB(d.data, d.stride, from.Data, from.Stride, d.Rows, d.Cols)
	default:
		return CopyBlock(&Dense{Rows: d.Rows, Cols: d.Cols, Stride: d.stride, Data: d.data}, from, d.Rows, d.Cols)
	}
	return nil
}

// Runs appends to runs the stretches of d's storage that hold its whole
// strips, or its rows, in storage order, and returns them together with the
// length of d's fringe: the valid lanes of a last strip that StripWidth does
// not fill, which GatherFringe and ScatterFringe move through a buffer of
// that length. The runs and then the fringe are d's Rows·Cols elements in
// the order a panel travels (DESIGN.md §11): each full strip's
// StripWidth·len contiguous elements, for a panel len long along its strips,
// then the fringe's valid lanes step by step, so padding never travels; for
// a row-major Dest, its rows. Runs that touch are merged into one.
func (d Dest) Runs(runs [][]float64) ([][]float64, int) {
	if d.Rows == 0 || d.Cols == 0 {
		return runs, 0
	}
	if d.form == rowMajor {
		return appendRuns(runs, d.data, d.stride, d.Cols, d.Rows), 0
	}
	lanes, steps := d.strips()
	return appendRuns(runs, d.data, d.stride, blas.StripWidth*steps, lanes/blas.StripWidth), lanes % blas.StripWidth * steps
}

// GatherFringe copies the valid lanes of d's fringe strip into buf, as many
// as Runs reports, step by step.
func (d Dest) GatherFringe(buf []float64) {
	strip, r := d.fringe()
	for l := 0; r > 0 && l < len(buf)/r; l++ {
		copy(buf[l*r:][:r], strip[l*blas.StripWidth:])
	}
}

// ScatterFringe writes buf, laid out as GatherFringe lays it out, into the
// valid lanes of d's fringe strip and zeros its padding lanes, as Put does.
func (d Dest) ScatterFringe(buf []float64) {
	strip, r := d.fringe()
	for l := 0; r > 0 && l < len(buf)/r; l++ {
		lane := strip[l*blas.StripWidth:][:blas.StripWidth]
		clear(lane[copy(lane, buf[l*r:][:r]):])
	}
}

// strips returns the lanes of a strip-form Dest, the rows or columns its
// strips hold, and its steps, the length of each strip.
func (d Dest) strips() (lanes, steps int) {
	if d.form == rowStrips {
		return d.Rows, d.Cols
	}
	return d.Cols, d.Rows
}

// fringe returns the storage of d's fringe strip and its valid lanes; a
// Dest with no fringe returns no storage.
func (d Dest) fringe() ([]float64, int) {
	if d.form == rowMajor || d.Rows == 0 || d.Cols == 0 {
		return nil, 0
	}
	lanes, steps := d.strips()
	if lanes%blas.StripWidth == 0 {
		return nil, 0
	}
	return d.data[lanes/blas.StripWidth*d.stride:][:blas.StripWidth*steps], lanes % blas.StripWidth
}

// appendRuns appends count runs of n elements, stride apart from data[0],
// as one run when they touch.
func appendRuns(runs [][]float64, data []float64, stride, n, count int) [][]float64 {
	if count == 0 {
		return runs
	}
	if stride == n {
		return append(runs, data[:n*count])
	}
	for i := range count {
		runs = append(runs, data[i*stride:][:n])
	}
	return runs
}
