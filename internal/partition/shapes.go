package partition

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Shape enumerates the four partition shapes the paper compares — the
// shapes proven optimal for three heterogeneous processors with constant
// speeds (DeFlumere et al. [9], [10]).
type Shape int

const (
	// SquareCorner: two square partitions in opposite corners; the third
	// partition is the non-rectangular remainder (Figure 1a).
	SquareCorner Shape = iota
	// SquareRectangle: one full-height rectangle, one square adjoining
	// it; the remainder is non-rectangular (Figure 1b).
	SquareRectangle
	// BlockRectangle: block 2D rectangular — a full-width rectangle on
	// top, the bottom strip split in two (Figure 1c). All partitions are
	// rectangles.
	BlockRectangle
	// OneDRectangle: traditional 1D column partitioning (Figure 1d).
	OneDRectangle
)

// Shapes lists all four shapes in the paper's order.
var Shapes = []Shape{SquareCorner, SquareRectangle, BlockRectangle, OneDRectangle}

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case SquareCorner:
		return "square-corner"
	case SquareRectangle:
		return "square-rectangle"
	case BlockRectangle:
		return "block-rectangle"
	case OneDRectangle:
		return "1d-rectangle"
	case LRectangle:
		return "l-rectangle"
	default:
		return fmt.Sprintf("shape(%d)", int(s))
	}
}

// UnknownShapeError reports a shape name that matches no known shape. It
// carries the list of valid names so CLI flags and API fields can show the
// user what would have been accepted.
type UnknownShapeError struct {
	// Name is the string that failed to parse.
	Name string
	// Valid lists the accepted shape names.
	Valid []string
}

func (e *UnknownShapeError) Error() string {
	return fmt.Sprintf("partition: unknown shape %q (valid: %s)", e.Name, strings.Join(e.Valid, ", "))
}

// ShapeNames returns the accepted names of all extended shapes, in the
// paper's order.
func ShapeNames() []string {
	names := make([]string, len(ExtendedShapes))
	for i, s := range ExtendedShapes {
		names[i] = s.String()
	}
	return names
}

// ParseShape converts a shape name back to a Shape (including the
// extended shapes). Matching is case-insensitive; an unknown name yields
// an *UnknownShapeError listing the valid names.
func ParseShape(name string) (Shape, error) {
	for _, s := range ExtendedShapes {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, &UnknownShapeError{Name: name, Valid: ShapeNames()}
}

// FromArrays builds a Layout from the paper's raw input arrays
// (subplda, subpldb, subp, subph, subpw) and validates it.
func FromArrays(n, p, subplda, subpldb int, subp, subph, subpw []int) (*Layout, error) {
	l := &Layout{
		N: n, P: p,
		GridRows: subplda, GridCols: subpldb,
		Owner:      append([]int(nil), subp...),
		RowHeights: append([]int(nil), subph...),
		ColWidths:  append([]int(nil), subpw...),
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// Build constructs the layout of a shape for three processors with the
// given target areas (len 3, summing to n²; areas[i] belongs to rank i).
// Following Section V, the areas are ranked in non-increasing order
// internally; the shape geometry is expressed in terms of the ranked areas
// a1 >= a2 >= a3 while each rank keeps its own region. Realized areas
// approximate the targets (the paper's "n3² ≈ a3"): squares must be
// square, so exact areas are generally unattainable.
func Build(shape Shape, n int, areas []int) (*Layout, error) {
	if n < 3 {
		return nil, fmt.Errorf("partition: N = %d too small for three partitions", n)
	}
	if len(areas) != 3 {
		return nil, fmt.Errorf("partition: shapes are defined for 3 processors, got %d areas", len(areas))
	}
	total := 0
	for i, a := range areas {
		if a <= 0 {
			return nil, fmt.Errorf("partition: area[%d] = %d must be positive", i, a)
		}
		total += a
	}
	if total != n*n {
		return nil, fmt.Errorf("partition: areas sum to %d, want N² = %d", total, n*n)
	}
	// Rank processors by area, non-increasing; ties by index.
	order := []int{0, 1, 2}
	sort.SliceStable(order, func(i, j int) bool { return areas[order[i]] > areas[order[j]] })
	r1, r2, r3 := order[0], order[1], order[2]
	a2, a3 := areas[r2], areas[r3]

	var proto gridProto
	switch shape {
	case SquareCorner:
		// Squares of sides ≈ √a2 (top-left) and ≈ √a3 (bottom-right);
		// the L-shaped remainder goes to the largest processor.
		n2 := clamp(iround(math.Sqrt(float64(a2))), 1, n-1)
		n3 := clamp(iround(math.Sqrt(float64(a3))), 1, n-n2)
		proto = gridProto{
			heights: []int{n2, n - n2 - n3, n3},
			widths:  []int{n2, n - n2 - n3, n3},
			owners: [][]int{
				{r2, r1, r1},
				{r1, r1, r1},
				{r1, r1, r3},
			},
		}
	case SquareRectangle:
		// Full-height rectangle of width ≈ a2/N on the right for r2, a
		// square of side ≈ √a3 adjoining it for r3, remainder for r1.
		w1 := clamp(iround(float64(a2)/float64(n)), 1, n-2)
		n3 := clamp(iround(math.Sqrt(float64(a3))), 1, n-w1-1)
		proto = gridProto{
			heights: []int{n - n3, n3},
			widths:  []int{n - n3 - w1, n3, w1},
			owners: [][]int{
				{r1, r1, r2},
				{r1, r3, r2},
			},
		}
	case BlockRectangle:
		// Full-width rectangle of height ≈ a1/N on top for r1; the
		// bottom strip splits into a right rectangle for r2 and the
		// left remainder for r3.
		h0 := clamp(iround(float64(areas[r1])/float64(n)), 1, n-1)
		w1 := clamp(iround(float64(a2)/float64(n-h0)), 1, n-1)
		proto = gridProto{
			heights: []int{h0, n - h0},
			widths:  []int{n - w1, w1},
			owners: [][]int{
				{r1, r1},
				{r3, r2},
			},
		}
	case OneDRectangle:
		// Column widths ≈ a_i/N; remainder to the largest.
		w2 := clamp(iround(float64(a2)/float64(n)), 1, n-2)
		w3 := clamp(iround(float64(a3)/float64(n)), 1, n-w2-1)
		proto = gridProto{
			heights: []int{n},
			widths:  []int{n - w2 - w3, w2, w3},
			owners: [][]int{
				{r1, r2, r3},
			},
		}
	case LRectangle:
		var err error
		proto, err = buildLRectangle(n, areas, r1, r2, r3)
		if err != nil {
			return nil, fmt.Errorf("partition: building %v: %w", shape, err)
		}
	default:
		return nil, fmt.Errorf("partition: unknown shape %v", shape)
	}
	l, err := proto.compact(n, 3)
	if err != nil {
		return nil, fmt.Errorf("partition: building %v: %w", shape, err)
	}
	return l, nil
}

// gridProto is an uncompacted grid that may contain zero-sized rows or
// columns (degenerate shape cases, e.g. two corner squares that tile the
// whole matrix leaving no middle band).
type gridProto struct {
	heights []int
	widths  []int
	owners  [][]int
}

// compact removes zero rows/columns and produces a validated Layout.
func (g gridProto) compact(n, p int) (*Layout, error) {
	var rows, cols []int
	for i, h := range g.heights {
		if h > 0 {
			rows = append(rows, i)
		} else if h < 0 {
			return nil, fmt.Errorf("negative row height %d", h)
		}
	}
	for j, w := range g.widths {
		if w > 0 {
			cols = append(cols, j)
		} else if w < 0 {
			return nil, fmt.Errorf("negative column width %d", w)
		}
	}
	l := &Layout{
		N: n, P: p,
		GridRows: len(rows), GridCols: len(cols),
	}
	for _, i := range rows {
		l.RowHeights = append(l.RowHeights, g.heights[i])
	}
	for _, j := range cols {
		l.ColWidths = append(l.ColWidths, g.widths[j])
	}
	for _, i := range rows {
		for _, j := range cols {
			l.Owner = append(l.Owner, g.owners[i][j])
		}
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

func iround(x float64) int { return int(math.Round(x)) }

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ColumnBased builds a column-based rectangular layout for an arbitrary
// number of processors, following the classical heuristic of Beaumont et
// al. [2]: processors are grouped into ≈√p columns; column widths are
// proportional to the column's total area and heights within a column are
// proportional to each processor's area. This generalizes the library
// beyond the paper's three-processor shapes.
func ColumnBased(n int, areas []int) (*Layout, error) {
	p := len(areas)
	if p == 0 {
		return nil, fmt.Errorf("partition: no processors")
	}
	// Sort processors by area, non-increasing.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return areas[order[i]] > areas[order[j]] })
	// Number of columns ≈ √p; distribute processors round-robin so
	// column loads stay even.
	ncols := int(math.Round(math.Sqrt(float64(p))))
	if ncols < 1 {
		ncols = 1
	}
	if ncols > p {
		ncols = p
	}
	colProcs := make([][]int, ncols)
	for idx, r := range order {
		c := idx % ncols
		colProcs[c] = append(colProcs[c], r)
	}
	return ColumnBasedGrouped(n, areas, colProcs)
}

// ColumnBasedGrouped builds a column-based layout with an explicit
// processor-to-column assignment. This is the topology-aware variant for
// hierarchical platforms: making each node one column keeps the vertical
// (B) communications on the node's fast interconnect and only the
// horizontal (A) broadcasts cross the cluster network.
func ColumnBasedGrouped(n int, areas []int, colProcs [][]int) (*Layout, error) {
	p := len(areas)
	if p == 0 {
		return nil, fmt.Errorf("partition: no processors")
	}
	total := 0
	for i, a := range areas {
		if a <= 0 {
			return nil, fmt.Errorf("partition: area[%d] = %d must be positive", i, a)
		}
		total += a
	}
	if total != n*n {
		return nil, fmt.Errorf("partition: areas sum to %d, want N² = %d", total, n*n)
	}
	ncols := len(colProcs)
	if ncols == 0 {
		return nil, fmt.Errorf("partition: no columns")
	}
	seen := make([]bool, p)
	for c, procs := range colProcs {
		if len(procs) == 0 {
			return nil, fmt.Errorf("partition: column %d is empty", c)
		}
		for _, r := range procs {
			if r < 0 || r >= p {
				return nil, fmt.Errorf("partition: column %d names invalid processor %d", c, r)
			}
			if seen[r] {
				return nil, fmt.Errorf("partition: processor %d appears in two columns", r)
			}
			seen[r] = true
		}
	}
	for r, s := range seen {
		if !s {
			return nil, fmt.Errorf("partition: processor %d assigned to no column", r)
		}
	}
	// Column widths proportional to column areas, exact-sum rounding.
	colAreas := make([]float64, ncols)
	for c, procs := range colProcs {
		for _, r := range procs {
			colAreas[c] += float64(areas[r])
		}
	}
	widths, err := apportion(n, colAreas)
	if err != nil {
		return nil, err
	}
	// Heights within each column proportional to processor areas.
	heightsPerCol := make([][]int, ncols)
	for c, procs := range colProcs {
		pa := make([]float64, len(procs))
		for i, r := range procs {
			pa[i] = float64(areas[r])
		}
		hs, err := apportion(n, pa)
		if err != nil {
			return nil, err
		}
		heightsPerCol[c] = hs
	}
	// Refine to a common grid: the union of row boundaries.
	boundarySet := map[int]bool{0: true, n: true}
	for _, hs := range heightsPerCol {
		s := 0
		for _, h := range hs {
			s += h
			boundarySet[s] = true
		}
	}
	var bounds []int
	for b := range boundarySet {
		bounds = append(bounds, b)
	}
	sort.Ints(bounds)
	l := &Layout{N: n, P: p, GridCols: ncols, GridRows: len(bounds) - 1}
	l.ColWidths = widths
	for i := 1; i < len(bounds); i++ {
		l.RowHeights = append(l.RowHeights, bounds[i]-bounds[i-1])
	}
	for gi := 0; gi < l.GridRows; gi++ {
		rowMid := (bounds[gi] + bounds[gi+1]) / 2
		for c := 0; c < ncols; c++ {
			// Find the processor of column c covering rowMid.
			s := 0
			owner := colProcs[c][len(colProcs[c])-1]
			for i, h := range heightsPerCol[c] {
				s += h
				if rowMid < s {
					owner = colProcs[c][i]
					break
				}
			}
			l.Owner = append(l.Owner, owner)
		}
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// BlockCyclic builds the two-dimensional block-cyclic distribution of
// ScaLAPACK and Elemental (related work III-E) on a pr×pc processor grid:
// n is cut into rowBlocks near-equal block rows and colBlocks block
// columns (the first blocks take the remainder), and block (I, J) belongs
// to rank (I mod pr)·pc + (J mod pc). Classic SUMMA's block distribution
// (van de Geijn & Watts [21]) is BlockCyclic(n, pr, pc, pr, pc); block
// size bs is BlockCyclic(n, pr, pc, n/bs, n/bs). Both baselines are thus
// ordinary layouts, run by the SummaGen engine like any other.
func BlockCyclic(n, pr, pc, rowBlocks, colBlocks int) (*Layout, error) {
	if pr <= 0 || pc <= 0 {
		return nil, fmt.Errorf("partition: invalid processor grid %dx%d", pr, pc)
	}
	if rowBlocks < pr || colBlocks < pc {
		return nil, fmt.Errorf("partition: %dx%d blocks cannot cover a %dx%d processor grid", rowBlocks, colBlocks, pr, pc)
	}
	equal := func(k int) []float64 {
		w := make([]float64, k)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	heights, err := apportion(n, equal(rowBlocks))
	if err != nil {
		return nil, err
	}
	widths, err := apportion(n, equal(colBlocks))
	if err != nil {
		return nil, err
	}
	owner := make([]int, rowBlocks*colBlocks)
	for i := 0; i < rowBlocks; i++ {
		for j := 0; j < colBlocks; j++ {
			owner[i*colBlocks+j] = (i%pr)*pc + j%pc
		}
	}
	return FromArrays(n, pr*pc, rowBlocks, colBlocks, owner, heights, widths)
}

// apportion splits n into len(weights) positive integer parts proportional
// to weights (largest-remainder rounding, minimum 1 each).
func apportion(n int, weights []float64) ([]int, error) {
	k := len(weights)
	if k == 0 {
		return nil, fmt.Errorf("partition: apportion with no weights")
	}
	if n < k {
		return nil, fmt.Errorf("partition: cannot split %d into %d positive parts", n, k)
	}
	var sum float64
	for _, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("partition: non-positive weight %v", w)
		}
		sum += w
	}
	parts := make([]int, k)
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, k)
	assigned := 0
	for i, w := range weights {
		exact := float64(n) * w / sum
		parts[i] = int(math.Floor(exact))
		if parts[i] < 1 {
			parts[i] = 1
		}
		assigned += parts[i]
		rems[i] = rem{idx: i, frac: exact - math.Floor(exact)}
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for assigned < n {
		for _, r := range rems {
			if assigned == n {
				break
			}
			parts[r.idx]++
			assigned++
		}
	}
	for assigned > n {
		// Shrink the largest parts (keeping the minimum of 1).
		maxI := 0
		for i := range parts {
			if parts[i] > parts[maxI] {
				maxI = i
			}
		}
		if parts[maxI] <= 1 {
			return nil, fmt.Errorf("partition: cannot apportion %d among %d parts", n, k)
		}
		parts[maxI]--
		assigned--
	}
	return parts, nil
}
