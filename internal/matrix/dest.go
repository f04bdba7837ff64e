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
