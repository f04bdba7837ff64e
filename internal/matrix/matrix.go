// Package matrix provides dense row-major matrices and the block-copy
// primitives SummaGen is built on.
//
// All matrices store float64 elements in row-major order with an explicit
// leading dimension (stride), mirroring the C layout used by the original
// SummaGen implementation so that the communication stages can copy
// rectangular sub-blocks between a global matrix and per-processor working
// matrices (WA, WB) exactly as the paper describes.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a dense row-major matrix. Element (i, j) lives at
// Data[i*Stride+j]. A Dense may be a view into a larger matrix, in which
// case Stride exceeds Cols and the rows are not contiguous.
type Dense struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// ErrShape reports incompatible or invalid matrix dimensions.
var ErrShape = errors.New("matrix: incompatible or invalid shape")

// New allocates a zeroed rows×cols matrix with a contiguous layout.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{
		Rows:   rows,
		Cols:   cols,
		Stride: cols,
		Data:   make([]float64, rows*cols),
	}
}

// FromSlice wraps an existing row-major slice as a rows×cols matrix.
// The slice must hold at least rows*cols elements; it is not copied.
func FromSlice(rows, cols int, data []float64) (*Dense, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrShape, rows, cols)
	}
	if len(data) < rows*cols {
		return nil, fmt.Errorf("%w: slice of %d elements cannot hold %dx%d", ErrShape, len(data), rows, cols)
	}
	return &Dense{Rows: rows, Cols: cols, Stride: cols, Data: data}, nil
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// View returns a sub-matrix view covering rows [i, i+rows) and columns
// [j, j+cols). The view shares storage with m.
func (m *Dense) View(i, j, rows, cols int) (*Dense, error) {
	if i < 0 || j < 0 || rows < 0 || cols < 0 || i+rows > m.Rows || j+cols > m.Cols {
		return nil, fmt.Errorf("%w: view (%d,%d)+%dx%d of %dx%d", ErrShape, i, j, rows, cols, m.Rows, m.Cols)
	}
	if rows == 0 || cols == 0 {
		return &Dense{Rows: rows, Cols: cols, Stride: m.Stride}, nil
	}
	return &Dense{
		Rows:   rows,
		Cols:   cols,
		Stride: m.Stride,
		Data:   m.Data[i*m.Stride+j:],
	}, nil
}

// MustView is View but panics on error; for statically-correct geometry.
func (m *Dense) MustView(i, j, rows, cols int) *Dense {
	v, err := m.View(i, j, rows, cols)
	if err != nil {
		panic(err)
	}
	return v
}

// Row returns row i as a slice sharing storage with m.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("matrix: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// Clone returns a deep, contiguous copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// Zero sets every element of m (honouring views) to zero.
func (m *Dense) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Equal reports whether a and b have identical shapes and elements.
func Equal(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

// EqualApprox reports whether a and b agree element-wise within tol,
// comparing |a-b| <= tol*(1+max(|a|,|b|)) so that the tolerance is
// meaningful for both tiny and large magnitudes. A NaN agrees with nothing.
func EqualApprox(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			x, y := ra[j], rb[j]
			scale := 1 + math.Max(math.Abs(x), math.Abs(y))
			if x != y && !(math.Abs(x-y) <= tol*scale) {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// a and b. It panics if the shapes differ.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MaxAbsDiff shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			d := math.Abs(ra[j] - rb[j])
			if d > max {
				max = d
			}
		}
	}
	return max
}

// CopyBlock copies a rows×cols block from src (starting at the origin of
// src) into dst (starting at the origin of dst). It is the Go analogue of
// the copy_matrix routine in the original SummaGen C code: both operands
// are addressed through their strides, so callers pass views positioned at
// the desired offsets.
func CopyBlock(dst, src *Dense, rows, cols int) error {
	if rows < 0 || cols < 0 || rows > dst.Rows || cols > dst.Cols || rows > src.Rows || cols > src.Cols {
		return fmt.Errorf("%w: CopyBlock %dx%d from %dx%d into %dx%d",
			ErrShape, rows, cols, src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	for i := 0; i < rows; i++ {
		copy(dst.Data[i*dst.Stride:i*dst.Stride+cols], src.Data[i*src.Stride:i*src.Stride+cols])
	}
	return nil
}

// PackBlock copies a rows×cols block out of src into a contiguous buffer,
// appending to buf (which may be nil) and returning the result.
func PackBlock(buf []float64, src *Dense, rows, cols int) []float64 {
	for i := 0; i < rows; i++ {
		buf = append(buf, src.Data[i*src.Stride:i*src.Stride+cols]...)
	}
	return buf
}

// UnpackBlock copies a contiguous rows×cols buffer into dst. It is the
// receive-side counterpart of PackBlock.
func UnpackBlock(dst *Dense, buf []float64, rows, cols int) error {
	if len(buf) < rows*cols {
		return fmt.Errorf("%w: UnpackBlock buffer %d < %dx%d", ErrShape, len(buf), rows, cols)
	}
	if rows > dst.Rows || cols > dst.Cols {
		return fmt.Errorf("%w: UnpackBlock %dx%d into %dx%d", ErrShape, rows, cols, dst.Rows, dst.Cols)
	}
	for i := 0; i < rows; i++ {
		copy(dst.Data[i*dst.Stride:i*dst.Stride+cols], buf[i*cols:(i+1)*cols])
	}
	return nil
}

// String renders small matrices for debugging; large matrices are
// summarized by shape only.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Dense{%dx%d}", m.Rows, m.Cols)
	}
	s := fmt.Sprintf("Dense %dx%d\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%8.3f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
