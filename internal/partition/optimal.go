package partition

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Reference [12] of the paper (Beaumont et al., TPDS 2019) analyzes
// approximate solutions against optimal ones "for the case of three
// partitions where they can be found using the exact algorithm". This file
// provides that exact search over the candidate shape families: for each
// family, every integer parameter choice whose realized areas stay within
// a tolerance of the targets is considered, and the layout minimizing the
// SummaGen communication volume is returned.
//
// The search is exact but does little work. Each loop parameter of a
// family alone fixes one rank's realized area, so a parameter value whose
// area already misses its target by more than the tolerance is skipped
// with all its candidates. Every admissible candidate is scored on its
// uncompacted grid, with no allocation, and only the winner of each family
// is built into a Layout.
//
// The search reproduces the classical threshold results: for mild
// heterogeneity the all-rectangular block shape wins; once the fastest
// processor is ≈3× the others (Becker & Lastovetsky's ratio), the
// square-corner family overtakes it.

// Candidate is one evaluated layout.
type Candidate struct {
	Shape  Shape
	Layout *Layout
	// Volume is the total SummaGen communication volume (elements).
	Volume int
	// AreaErr is the largest |realized − target| area over processors.
	AreaErr int
}

// OptimalShape searches the parameter space of every shape family and
// returns the candidate with the smallest communication volume whose
// realized areas deviate from the targets by at most tol elements per
// processor (tol <= 0 defaults to 2N). The search is exact over every such
// candidate, though it builds only each family's winner. The runner-up
// list is returned for analysis, sorted by family order.
func OptimalShape(n int, areas []int, tol int) (best Candidate, perFamily []Candidate, err error) {
	if len(areas) != 3 {
		return best, nil, fmt.Errorf("partition: exact search is defined for 3 processors, got %d", len(areas))
	}
	total := 0
	for i, a := range areas {
		if a <= 0 {
			return best, nil, fmt.Errorf("partition: area[%d] = %d must be positive", i, a)
		}
		total += a
	}
	if total != n*n {
		return best, nil, fmt.Errorf("partition: areas sum to %d, want N² = %d", total, n*n)
	}
	if tol <= 0 {
		tol = 2 * n
	}
	for _, shape := range ExtendedShapes {
		c, ok := bestInFamily(shape, n, areas, tol)
		if !ok {
			continue
		}
		perFamily = append(perFamily, c)
		if best.Layout == nil || c.Volume < best.Volume {
			best = c
		}
	}
	if best.Layout == nil {
		return best, nil, fmt.Errorf("partition: no shape realizes areas %v within ±%d", areas, tol)
	}
	return best, perFamily, nil
}

// bestInFamily searches a family's integer parameters in increasing order,
// keeping the first candidate of least volume and, among those, of least
// area error.
func bestInFamily(shape Shape, n int, areas []int, tol int) (Candidate, bool) {
	s := familySearch{n: n, areas: areas, tol: tol, vol: math.MaxInt}
	// Rank the areas like the constructors do.
	order := []int{0, 1, 2}
	insertionSortByArea(order, areas)
	r1, r2, r3 := order[0], order[1], order[2]
	square := func(x int) int { return x * x }

	switch shape {
	case SquareCorner:
		lo, hi := s.span(1, n-1, r2, square)
		for n2 := lo; n2 <= hi; n2++ {
			lo, hi := s.span(1, n-n2, r3, square)
			for n3 := lo; n3 <= hi; n3++ {
				s.consider(gridProto{
					heights: []int{n2, n - n2 - n3, n3},
					widths:  []int{n2, n - n2 - n3, n3},
					owners:  [][]int{{r2, r1, r1}, {r1, r1, r1}, {r1, r1, r3}},
				})
			}
		}
	case SquareRectangle:
		lo, hi := s.span(1, n-2, r2, func(w1 int) int { return w1 * n })
		for w1 := lo; w1 <= hi; w1++ {
			lo, hi := s.span(1, n-w1-1, r3, square)
			for n3 := lo; n3 <= hi; n3++ {
				s.consider(gridProto{
					heights: []int{n - n3, n3},
					widths:  []int{n - n3 - w1, n3, w1},
					owners:  [][]int{{r1, r1, r2}, {r1, r3, r2}},
				})
			}
		}
	case BlockRectangle:
		lo, hi := s.span(1, n-1, r1, func(h0 int) int { return h0 * n })
		for h0 := lo; h0 <= hi; h0++ {
			lo, hi := s.span(1, n-1, r2, func(w1 int) int { return w1 * (n - h0) })
			for w1 := lo; w1 <= hi; w1++ {
				s.consider(gridProto{
					heights: []int{h0, n - h0},
					widths:  []int{n - w1, w1},
					owners:  [][]int{{r1, r1}, {r3, r2}},
				})
			}
		}
	case OneDRectangle:
		lo, hi := s.span(1, n-2, r2, func(w2 int) int { return w2 * n })
		for w2 := lo; w2 <= hi; w2++ {
			lo, hi := s.span(1, n-1-w2, r3, func(w3 int) int { return w3 * n })
			for w3 := lo; w3 <= hi; w3++ {
				s.consider(gridProto{
					heights: []int{n},
					widths:  []int{n - w2 - w3, w2, w3},
					owners:  [][]int{{r1, r2, r3}},
				})
			}
		}
	case LRectangle:
		lo, hi := s.span(1, n-2, r1, func(t int) int { return t * (2*n - t) })
		for t := lo; t <= hi; t++ {
			side := n - t
			lo, hi := s.span(1, side-1, r2, func(h2 int) int { return h2 * side })
			for h2 := lo; h2 <= hi; h2++ {
				s.consider(gridProto{
					heights: []int{t, h2, side - h2},
					widths:  []int{t, side},
					owners:  [][]int{{r1, r1}, {r1, r2}, {r1, r3}},
				})
			}
		}
	}
	none := Candidate{Shape: shape, Volume: math.MaxInt}
	if s.vol == math.MaxInt {
		return none, false
	}
	l, err := s.build()
	if err != nil {
		return none, false
	}
	return Candidate{Shape: shape, Layout: l, Volume: s.vol, AreaErr: s.worst}, true
}

// familySearch is the state of one family's search: the targets, and the
// score and grid of the best candidate so far. The candidates live on the
// enumeration's stack, so the best one's grid is copied into fixed arrays.
type familySearch struct {
	n, tol int
	areas  []int
	// vol is math.MaxInt until a candidate is admitted.
	vol, worst      int
	rows, cols      int
	heights, widths [3]int
	owners          [3][3]int
}

// span narrows a loop over [lo, hi] to the values x whose area(x) lies
// within tol of rank's target, where area(x) is the realized area of rank,
// fixed by x alone and non-decreasing in it. No candidate outside the span
// can be admitted.
func (s *familySearch) span(lo, hi, rank int, area func(int) int) (from, to int) {
	target := s.areas[rank]
	from = lo + sort.Search(hi-lo+1, func(i int) bool { return target-area(lo+i) <= s.tol })
	to = from - 1 + sort.Search(hi-from+1, func(i int) bool { return area(from+i)-target > s.tol })
	return from, to
}

// consider keeps g if it is admissible and beats the best so far on
// volume, or ties it on volume with a smaller area error.
func (s *familySearch) consider(g gridProto) {
	vol, worst, ok := s.score(&g)
	if !ok || worst > s.tol {
		return
	}
	if vol < s.vol || (vol == s.vol && worst < s.worst) {
		s.vol, s.worst = vol, worst
		s.rows, s.cols = len(g.heights), len(g.widths)
		copy(s.heights[:], g.heights)
		copy(s.widths[:], g.widths)
		for i, row := range g.owners {
			copy(s.owners[i][:], row)
		}
	}
}

// score evaluates a grid of non-negative rows and columns, owned by ranks
// 0–2, as compact, Validate, Areas and CommVolumes would on the layout it
// compacts to, without building that layout. A zero-height row or
// zero-width column has no elements and is no band's member; ok reports
// that every rank still owns a non-empty cell. worst is the largest
// |realized − target| area and vol the total communication volume: a band
// of thickness h whose cells have k distinct owners delivers each of them
// the part of its N·h elements that owner lacks, (k−1)·N·h in all.
func (s *familySearch) score(g *gridProto) (vol, worst int, ok bool) {
	var got [3]int
	for i, h := range g.heights {
		var members uint
		for j, w := range g.widths {
			if h > 0 && w > 0 {
				got[g.owners[i][j]] += h * w
				members |= 1 << g.owners[i][j]
			}
		}
		vol += h * max(bits.OnesCount(members)-1, 0)
	}
	for j, w := range g.widths {
		var members uint
		for i, h := range g.heights {
			if h > 0 && w > 0 {
				members |= 1 << g.owners[i][j]
			}
		}
		vol += w * max(bits.OnesCount(members)-1, 0)
	}
	for r, a := range got {
		if a == 0 {
			return 0, 0, false
		}
		worst = max(worst, absInt(a-s.areas[r]))
	}
	return vol * s.n, worst, true
}

// build compacts the best candidate's grid into its Layout.
func (s *familySearch) build() (*Layout, error) {
	var owners [3][]int
	for i := range owners {
		owners[i] = s.owners[i][:s.cols]
	}
	g := gridProto{heights: s.heights[:s.rows], widths: s.widths[:s.cols], owners: owners[:s.rows]}
	return g.compact(s.n, 3)
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func insertionSortByArea(order []int, areas []int) {
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && areas[order[j]] > areas[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}
