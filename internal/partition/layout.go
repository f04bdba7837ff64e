// Package partition implements the matrix-partition description SummaGen
// consumes and the four shape constructors of Section V.
//
// A Layout is the Go form of the paper's input arrays: a coarse
// GridRows×GridCols grid of sub-partitions (subplda × subpldb), the owner
// of each cell (subp), and the row heights (subph) and column widths
// (subpw). Every processor's partition is the union of the cells it owns;
// non-rectangular partitions — such as the L-shaped region of the square
// corner shape — arise when a processor owns a non-rectangular set of
// cells.
package partition

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Layout describes the partitioning of N×N matrices among P processors.
type Layout struct {
	// N is the matrix dimension.
	N int
	// P is the number of processors.
	P int
	// GridRows and GridCols are the paper's subplda and subpldb.
	GridRows, GridCols int
	// Owner is the paper's subp: row-major GridRows×GridCols, Owner[i*GridCols+j]
	// is the rank owning sub-partition (i, j).
	Owner []int
	// RowHeights is the paper's subph (len GridRows, sums to N).
	RowHeights []int
	// ColWidths is the paper's subpw (len GridCols, sums to N).
	ColWidths []int
}

// ErrInvalid reports a malformed layout.
var ErrInvalid = errors.New("partition: invalid layout")

// maxN bounds the matrix dimension so that every element count a layout
// reports (N², and the 2·N² a rank can at most receive) fits in an int.
const maxN = 1 << 30

// Validate checks all the structural invariants of the paper's arrays. It
// is also the gate for layouts read from outside (LoadLayout), so it
// neither allocates by an untrusted size nor lets a sum overflow.
func (l *Layout) Validate() error {
	if l.N <= 0 || l.N > maxN {
		return fmt.Errorf("%w: N = %d", ErrInvalid, l.N)
	}
	if l.P <= 0 {
		return fmt.Errorf("%w: P = %d", ErrInvalid, l.P)
	}
	if l.GridRows <= 0 || l.GridCols <= 0 {
		return fmt.Errorf("%w: grid %dx%d", ErrInvalid, l.GridRows, l.GridCols)
	}
	if len(l.Owner) != l.GridRows*l.GridCols {
		return fmt.Errorf("%w: owner array has %d entries, want %d", ErrInvalid, len(l.Owner), l.GridRows*l.GridCols)
	}
	if len(l.RowHeights) != l.GridRows {
		return fmt.Errorf("%w: %d row heights for %d grid rows", ErrInvalid, len(l.RowHeights), l.GridRows)
	}
	if len(l.ColWidths) != l.GridCols {
		return fmt.Errorf("%w: %d column widths for %d grid columns", ErrInvalid, len(l.ColWidths), l.GridCols)
	}
	// Bounding each partial sum by N keeps the sums from wrapping around.
	sumH, sumW := 0, 0
	for i, h := range l.RowHeights {
		if h <= 0 || h > l.N-sumH {
			return fmt.Errorf("%w: row %d height %d (heights so far %d, N=%d)", ErrInvalid, i, h, sumH, l.N)
		}
		sumH += h
	}
	for j, w := range l.ColWidths {
		if w <= 0 || w > l.N-sumW {
			return fmt.Errorf("%w: column %d width %d (widths so far %d, N=%d)", ErrInvalid, j, w, sumW, l.N)
		}
		sumW += w
	}
	if sumH != l.N || sumW != l.N {
		return fmt.Errorf("%w: heights sum %d, widths sum %d, want N=%d", ErrInvalid, sumH, sumW, l.N)
	}
	// Every processor must own a cell, so P cannot exceed the cell count;
	// checking it first bounds the allocation below by the owner array.
	if l.P > len(l.Owner) {
		return fmt.Errorf("%w: P = %d exceeds the %d cells of the grid", ErrInvalid, l.P, len(l.Owner))
	}
	seen := make([]bool, l.P)
	for idx, o := range l.Owner {
		if o < 0 || o >= l.P {
			return fmt.Errorf("%w: owner[%d] = %d outside [0,%d)", ErrInvalid, idx, o, l.P)
		}
		seen[o] = true
	}
	for r, s := range seen {
		if !s {
			return fmt.Errorf("%w: processor %d owns no sub-partition", ErrInvalid, r)
		}
	}
	return nil
}

// OwnerAt returns the rank owning sub-partition (i, j).
func (l *Layout) OwnerAt(i, j int) int {
	return l.Owner[i*l.GridCols+j]
}

// RowStart returns the element row where grid row i starts.
func (l *Layout) RowStart(i int) int {
	s := 0
	for k := 0; k < i; k++ {
		s += l.RowHeights[k]
	}
	return s
}

// ColStart returns the element column where grid column j starts.
func (l *Layout) ColStart(j int) int {
	s := 0
	for k := 0; k < j; k++ {
		s += l.ColWidths[k]
	}
	return s
}

// Areas returns the number of matrix elements owned by each processor.
func (l *Layout) Areas() []int {
	areas := make([]int, l.P)
	for i := 0; i < l.GridRows; i++ {
		for j := 0; j < l.GridCols; j++ {
			areas[l.OwnerAt(i, j)] += l.RowHeights[i] * l.ColWidths[j]
		}
	}
	return areas
}

// OwnsInRow reports whether rank owns at least one sub-partition in grid
// row i — the paper's row_contains_rank.
func (l *Layout) OwnsInRow(rank, i int) bool {
	for j := 0; j < l.GridCols; j++ {
		if l.OwnerAt(i, j) == rank {
			return true
		}
	}
	return false
}

// OwnsInCol reports whether rank owns at least one sub-partition in grid
// column j — the paper's column_contains_rank.
func (l *Layout) OwnsInCol(rank, j int) bool {
	for i := 0; i < l.GridRows; i++ {
		if l.OwnerAt(i, j) == rank {
			return true
		}
	}
	return false
}

// RowProcs returns the sorted distinct ranks owning sub-partitions in grid
// row i — the membership of the paper's row communicator.
func (l *Layout) RowProcs(i int) []int {
	return l.lineProcs(func(j int) int { return l.OwnerAt(i, j) }, l.GridCols)
}

// ColProcs returns the sorted distinct ranks owning sub-partitions in grid
// column j — the membership of the column communicator.
func (l *Layout) ColProcs(j int) []int {
	return l.lineProcs(func(i int) int { return l.OwnerAt(i, j) }, l.GridRows)
}

func (l *Layout) lineProcs(ownerAt func(int) int, n int) []int {
	seen := map[int]bool{}
	var out []int
	for k := 0; k < n; k++ {
		o := ownerAt(k)
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	// Insertion sort; the sets are tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CoveringRect returns the covering rectangle R(Z) of a processor's
// partition — the Cartesian product of its projections along both
// dimensions — as (height, width) in elements. This is the paper's
// definition from the PMMNR-OPT formulation.
func (l *Layout) CoveringRect(rank int) (h, w int) {
	minR, maxR, minC, maxC := l.GridRows, -1, l.GridCols, -1
	for i := 0; i < l.GridRows; i++ {
		for j := 0; j < l.GridCols; j++ {
			if l.OwnerAt(i, j) != rank {
				continue
			}
			if i < minR {
				minR = i
			}
			if i > maxR {
				maxR = i
			}
			if j < minC {
				minC = j
			}
			if j > maxC {
				maxC = j
			}
		}
	}
	if maxR < 0 {
		return 0, 0
	}
	for i := minR; i <= maxR; i++ {
		h += l.RowHeights[i]
	}
	for j := minC; j <= maxC; j++ {
		w += l.ColWidths[j]
	}
	return h, w
}

// HalfPerimeter returns c(Z) = h(Z) + w(Z) for a processor — the paper's
// per-processor communication-volume proxy.
func (l *Layout) HalfPerimeter(rank int) int {
	h, w := l.CoveringRect(rank)
	return h + w
}

// TotalHalfPerimeter returns Σ c(Z_i), the objective of formula (4).
func (l *Layout) TotalHalfPerimeter() int {
	s := 0
	for r := 0; r < l.P; r++ {
		s += l.HalfPerimeter(r)
	}
	return s
}

// CommVolumes returns, per rank, the number of matrix elements of A and B
// the SummaGen algorithm actually delivers to that rank (elements in
// sub-partition rows/columns the rank participates in but does not own).
// This is the precise per-shape communication load behind Figures 6c/7c.
func (l *Layout) CommVolumes() []int {
	vol := make([]int, l.P)
	// Horizontal stage: each grid row it appears in delivers the whole
	// row of A (all cells not already owned). A grid row fully owned by
	// one processor incurs no communication (the paper's special case).
	for i := 0; i < l.GridRows; i++ {
		procs := l.RowProcs(i)
		if len(procs) == 1 {
			continue
		}
		for _, r := range procs {
			for j := 0; j < l.GridCols; j++ {
				if l.OwnerAt(i, j) != r {
					vol[r] += l.RowHeights[i] * l.ColWidths[j]
				}
			}
		}
	}
	// Vertical stage: same per grid column for B.
	for j := 0; j < l.GridCols; j++ {
		procs := l.ColProcs(j)
		if len(procs) == 1 {
			continue
		}
		for _, r := range procs {
			for i := 0; i < l.GridRows; i++ {
				if l.OwnerAt(i, j) != r {
					vol[r] += l.RowHeights[i] * l.ColWidths[j]
				}
			}
		}
	}
	return vol
}

// Render draws the layout as an ASCII grid with one character per block of
// `cell` elements (cell = N/16 gives a 16×16 picture), useful for
// eyeballing shapes against Figure 1.
func (l *Layout) Render(cells int) string {
	if cells <= 0 {
		cells = 16
	}
	if cells > l.N {
		cells = l.N
	}
	var sb strings.Builder
	for ci := 0; ci < cells; ci++ {
		i := ci * l.N / cells
		gi := l.gridRowOf(i)
		for cj := 0; cj < cells; cj++ {
			j := cj * l.N / cells
			gj := l.gridColOf(j)
			o := l.OwnerAt(gi, gj)
			sb.WriteByte(ownerGlyph(o))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func ownerGlyph(o int) byte {
	const glyphs = "0123456789abcdefghijklmnopqrstuvwxyz"
	if o >= 0 && o < len(glyphs) {
		return glyphs[o]
	}
	return '?'
}

func (l *Layout) gridRowOf(row int) int {
	s := 0
	for i, h := range l.RowHeights {
		s += h
		if row < s {
			return i
		}
	}
	return l.GridRows - 1
}

func (l *Layout) gridColOf(col int) int {
	s := 0
	for j, w := range l.ColWidths {
		s += w
		if col < s {
			return j
		}
	}
	return l.GridCols - 1
}

// SubpArrays returns the layout in the paper's raw input form
// (subplda, subpldb, subp, subph, subpw) — the inverse of FromArrays, for
// interoperability with the original C implementation's inputs.
func (l *Layout) SubpArrays() (subplda, subpldb int, subp, subph, subpw []int) {
	return l.GridRows, l.GridCols,
		append([]int(nil), l.Owner...),
		append([]int(nil), l.RowHeights...),
		append([]int(nil), l.ColWidths...)
}

// Equal reports whether two layouts describe the identical partitioning.
func Equal(a, b *Layout) bool {
	return a.N == b.N && a.P == b.P && a.GridRows == b.GridRows && a.GridCols == b.GridCols &&
		slices.Equal(a.Owner, b.Owner) && slices.Equal(a.RowHeights, b.RowHeights) && slices.Equal(a.ColWidths, b.ColWidths)
}

// Digest is a 64-bit FNV-1a hash of the layout's words (N, P, the grid
// dimensions, Owner, RowHeights and ColWidths): equal layouts have equal
// digests. It keys the engine's compiled-schedule cache, and the ranks of a
// mesh compare it before they multiply.
func (l *Layout) Digest() uint64 {
	h := uint64(14695981039346656037)
	for _, vs := range [][]int{{l.N, l.P, l.GridRows, l.GridCols}, l.Owner, l.RowHeights, l.ColWidths} {
		for _, v := range vs {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	return h
}
