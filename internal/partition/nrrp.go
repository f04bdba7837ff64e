package partition

import (
	"fmt"
	"math"
	"sort"
)

// NRRP implements a non-rectangular recursive partitioning in the spirit
// of Beaumont, Eyraud-Dubois & Lambert (IPDPS 2016 — reference [11] of the
// paper), which combines the recursive rectangle-dissection technique of
// Nagamochi & Abe with the square-corner constructions to reach a 2/√3
// approximation of the optimal communication volume for arbitrary
// processor counts.
//
// The recursion splits the processor set into two balanced groups and cuts
// the current rectangle along its longer side proportionally to the group
// loads. Base cases: one processor takes the whole rectangle; for two
// strongly heterogeneous processors (area ratio ≥ 3, Becker &
// Lastovetsky's threshold) the smaller one receives a *square* in a corner
// and the larger the non-rectangular remainder, which is exactly where the
// approach beats purely rectangular dissections.
//
// The result is returned as a Layout over the refined global grid induced
// by all cuts.
func NRRP(n int, areas []int) (*Layout, error) {
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
	pr := &painter{}
	procs := make([]int, p)
	for i := range procs {
		procs[i] = i
	}
	if err := nrrpRecurse(pr, rect{0, 0, n, n}, procs, areas); err != nil {
		return nil, err
	}
	return pr.toLayout(n, p)
}

// rect is an axis-aligned region [x0, x0+w) × [y0, y0+h) in (row, col)
// element coordinates (x = row, y = col).
type rect struct {
	x0, y0, h, w int
}

// painter accumulates per-processor rectangles that tile the matrix.
type painter struct {
	rects  []rect
	owners []int
}

func (p *painter) paint(r rect, owner int) {
	if r.h <= 0 || r.w <= 0 {
		return
	}
	p.rects = append(p.rects, r)
	p.owners = append(p.owners, owner)
}

// toLayout refines all painted rectangles into one global grid.
func (p *painter) toLayout(n, procs int) (*Layout, error) {
	xs := map[int]bool{0: true, n: true}
	ys := map[int]bool{0: true, n: true}
	for _, r := range p.rects {
		xs[r.x0], xs[r.x0+r.h] = true, true
		ys[r.y0], ys[r.y0+r.w] = true, true
	}
	xb := sortedKeys(xs)
	yb := sortedKeys(ys)
	l := &Layout{N: n, P: procs, GridRows: len(xb) - 1, GridCols: len(yb) - 1}
	for i := 1; i < len(xb); i++ {
		l.RowHeights = append(l.RowHeights, xb[i]-xb[i-1])
	}
	for j := 1; j < len(yb); j++ {
		l.ColWidths = append(l.ColWidths, yb[j]-yb[j-1])
	}
	l.Owner = make([]int, l.GridRows*l.GridCols)
	for i := range l.Owner {
		l.Owner[i] = -1
	}
	for gi := 0; gi < l.GridRows; gi++ {
		cx := (xb[gi] + xb[gi+1]) / 2
		for gj := 0; gj < l.GridCols; gj++ {
			cy := (yb[gj] + yb[gj+1]) / 2
			for k, r := range p.rects {
				if cx >= r.x0 && cx < r.x0+r.h && cy >= r.y0 && cy < r.y0+r.w {
					l.Owner[gi*l.GridCols+gj] = p.owners[k]
					break
				}
			}
			if l.Owner[gi*l.GridCols+gj] < 0 {
				return nil, fmt.Errorf("partition: NRRP left cell (%d,%d) unpainted", gi, gj)
			}
		}
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func nrrpRecurse(pr *painter, r rect, procs []int, areas []int) error {
	switch len(procs) {
	case 0:
		return fmt.Errorf("partition: empty processor group for %+v", r)
	case 1:
		pr.paint(r, procs[0])
		return nil
	case 2:
		return nrrpPair(pr, r, procs, areas)
	}
	// Split the group into two load-balanced halves (greedy LPT), cut the
	// rectangle along its longer side proportionally, recurse.
	gA, gB := splitGroups(procs, areas)
	loadA, loadB := groupLoad(gA, areas), groupLoad(gB, areas)
	rA, rB := cutRect(r, loadA, loadA+loadB)
	if err := nrrpRecurse(pr, rA, gA, areas); err != nil {
		return err
	}
	return nrrpRecurse(pr, rB, gB, areas)
}

// nrrpPair places two processors in a rectangle: a proportional guillotine
// cut when they are comparable, a corner square + non-rectangular
// remainder when strongly heterogeneous (ratio ≥ 3) and the square fits.
func nrrpPair(pr *painter, r rect, procs []int, areas []int) error {
	p0, p1 := procs[0], procs[1]
	if areas[p0] < areas[p1] {
		p0, p1 = p1, p0 // p0 is the larger
	}
	aSmall := areas[p1]
	ratio := float64(areas[p0]) / float64(aSmall)
	side := iround(math.Sqrt(float64(aSmall)))
	if ratio >= 3 && side >= 1 && side < r.h && side < r.w {
		// Square corner: the small processor takes a side×side square in
		// the top-right corner; the large one takes the L-shaped rest
		// (painted as two rectangles).
		pr.paint(rect{r.x0, r.y0 + r.w - side, side, side}, p1)
		pr.paint(rect{r.x0, r.y0, side, r.w - side}, p0)
		pr.paint(rect{r.x0 + side, r.y0, r.h - side, r.w}, p0)
		return nil
	}
	rA, rB := cutRect(r, areas[p0], areas[p0]+areas[p1])
	pr.paint(rA, p0)
	pr.paint(rB, p1)
	return nil
}

// splitGroups partitions processors into two groups with balanced total
// areas: greedy longest-processing-time assignment.
func splitGroups(procs []int, areas []int) (a, b []int) {
	order := append([]int(nil), procs...)
	sort.SliceStable(order, func(i, j int) bool { return areas[order[i]] > areas[order[j]] })
	var loadA, loadB int
	for _, p := range order {
		if loadA <= loadB {
			a = append(a, p)
			loadA += areas[p]
		} else {
			b = append(b, p)
			loadB += areas[p]
		}
	}
	return a, b
}

func groupLoad(g []int, areas []int) int {
	s := 0
	for _, p := range g {
		s += areas[p]
	}
	return s
}

// cutRect cuts r perpendicular to its longer side so the first part holds
// `load` of `total`, with both parts non-empty.
func cutRect(r rect, load, total int) (first, second rect) {
	if r.h >= r.w {
		cut := clamp(iround(float64(r.h)*float64(load)/float64(total)), 1, r.h-1)
		return rect{r.x0, r.y0, cut, r.w}, rect{r.x0 + cut, r.y0, r.h - cut, r.w}
	}
	cut := clamp(iround(float64(r.w)*float64(load)/float64(total)), 1, r.w-1)
	return rect{r.x0, r.y0, r.h, cut}, rect{r.x0, r.y0 + cut, r.h, r.w - cut}
}
