package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/blas"
	"repro/internal/obs"
	"repro/internal/partition"
)

// schedule is a layout compiled once: per rank, everything a multiply reads
// off the layout arrays (subp, subph, subpw), in the order the rank runs it.
// It is read-only once built and shared by every multiply under an equal
// layout, concurrent ones included.
type schedule struct {
	layout             partition.Layout // a private copy: the cache key
	rowStart, colStart []int            // element offset of each grid row/column, then N
	areas              []int            // elements owned per rank
	ratio              float64          // partition.OptimalityRatio, 0 when it has none
	ranks              []rankSchedule
	shm                []Proc // the shared-memory ranks Multiply runs (shmWorld)
	// labels holds, per band (grid rows, then grid columns), the label of
	// the communicator creation Simulate charges before the band's
	// broadcasts, "split@[0 2]", and the label they are recorded under,
	// "bcast@[0 2]"; empty for a band with one member.
	labels [][2]string
	// keys is how many broadcasts stages 1 and 2 run, over all bands: every
	// rank begins each stage with its count (Proc.BeginStage).
	keys [2]int
	// events is how many Timeline events a multiply records: one bcast per
	// broadcast op and one compute per rectangle, on every member (a walk
	// adds its split and idle events on top).
	events int
}

// rankSchedule is one rank's share. WA holds waStrips strips of A's rows and
// WB wbStrips strips of B's columns, in blas's packed format (each strip
// blas.StripWidth·N elements), every band padded to whole strips; grid row i
// starts at strip rowStrip[i] of WA and grid column j at strip colStrip[j] of
// WB (-1 where the rank owns no cell of the band).
type rankSchedule struct {
	waStrips, wbStrips int
	rowStrip, colStrip []int
	ops                [2][]bandOp // stages 1 and 2, indexed by axis
	rects              []rect      // stage 3: one DGEMM each
	cells              [][2]int    // owned cells (i, j), row-major, for checkpoint restore
	events             int         // the rank's share of schedule.events
}

// workLens returns the lengths of the rank's WA and WB for an N×N product:
// what rankMain draws and MemoryEstimate counts.
func (rs *rankSchedule) workLens(n int) (wa, wb int) {
	return rs.waStrips * blas.StripWidth * n, rs.wbStrips * blas.StripWidth * n
}

// bandOp is one step of stage 1 or 2: copy, or broadcast from its owner, the
// h×w rectangle at (r0, c0) of A or B into WA or WB from element off, which
// is the band's first strip at the rectangle's first k.
type bandOp struct {
	procs             []int // the band's members, one slice shared by all; nil: a local copy
	split             bool  // the band's first broadcast, which Simulate charges the communicator's creation
	band              int   // grid row i is band i, grid column j band GridRows+j
	root              int   // index in procs of the rectangle's owner
	r0, c0, h, w, off int
	// key is the broadcast's place among all the stage's broadcasts, in
	// band order, the same on every member: its frames' key is the stage's
	// first key plus key.
	key int
}

// rect is one stage-3 DGEMM: the owned cells of grid rows [i0, i1) and
// columns [j0, j1), the h×w block of C at (r0, c0).
type rect struct {
	i0, i1, j0, j1, r0, c0, h, w int
	flops                        float64
	label                        string
	attrs                        [1]obs.Attr // its DGEMM span's: the flops
}

// maxSchedules bounds the schedule cache. A service multiplies one layout
// per plan and keeps at most 512 plans (sched.maxPlanCache), so every plan
// it holds keeps its schedule; at the bound one schedule is evicted.
const maxSchedules = 512

var schedules = struct {
	sync.Mutex
	m map[uint64]*schedule
}{m: map[uint64]*schedule{}}

// scheduleFor returns l's compiled schedule. A hit needs an equal layout, not
// the same pointer, and only a valid layout is ever compiled, so the equality
// check stands in for Layout.Validate.
func scheduleFor(l *partition.Layout) (*schedule, error) {
	h := l.Digest()
	schedules.Lock()
	s := schedules.m[h]
	schedules.Unlock()
	if s != nil && partition.Equal(&s.layout, l) {
		return s, nil
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	s = compile(l)
	schedules.Lock()
	defer schedules.Unlock()
	if len(schedules.m) >= maxSchedules {
		for k := range schedules.m { // an arbitrary one
			delete(schedules.m, k)
			break
		}
	}
	schedules.m[h] = s
	return s, nil
}

// compile derives every rank's schedule from a valid layout.
func compile(l *partition.Layout) *schedule {
	s := &schedule{
		layout: partition.Layout{N: l.N, P: l.P, GridRows: l.GridRows, GridCols: l.GridCols,
			Owner: slices.Clone(l.Owner), RowHeights: slices.Clone(l.RowHeights), ColWidths: slices.Clone(l.ColWidths)},
		rowStart: prefixSums(l.RowHeights),
		colStart: prefixSums(l.ColWidths),
		areas:    l.Areas(),
		ranks:    make([]rankSchedule, l.P),
		shm:      shmWorld(l.P),
	}
	if ratio, err := partition.OptimalityRatio(l); err == nil {
		s.ratio = ratio
	}
	rowProcs, colProcs := make([][]int, l.GridRows), make([][]int, l.GridCols)
	for i := range rowProcs {
		rowProcs[i] = l.RowProcs(i)
	}
	for j := range colProcs {
		colProcs[j] = l.ColProcs(j)
	}
	for _, procs := range [][][]int{rowProcs, colProcs} {
		for _, members := range procs {
			var lb [2]string
			if len(members) > 1 {
				suffix := fmt.Sprintf("@%v", members)
				lb = [2]string{"split" + suffix, "bcast" + suffix}
			}
			s.labels = append(s.labels, lb)
		}
	}
	for r := range s.ranks {
		rs := &s.ranks[r]
		rs.ops[axisA], rs.rowStrip, rs.waStrips, s.keys[axisA] = s.bandOps(r, axisA, rowProcs)
		rs.ops[axisB], rs.colStrip, rs.wbStrips, s.keys[axisB] = s.bandOps(r, axisB, colProcs)
		for k, o := range l.Owner {
			if o == r {
				rs.cells = append(rs.cells, [2]int{k / l.GridCols, k % l.GridCols})
			}
		}
		rs.rects = s.findRects(func(i, j int) bool { return l.OwnerAt(i, j) == r })
		rs.events = len(rs.rects)
		for _, ops := range rs.ops {
			for _, o := range ops {
				if o.procs != nil {
					rs.events++
				}
			}
		}
		s.events += rs.events
	}
	return s
}

func prefixSums(xs []int) []int {
	out := make([]int, len(xs)+1)
	for i, x := range xs {
		out[i+1] = out[i] + x
	}
	return out
}

// bandOps lists rank's stage-1 (axisA: bands are grid rows) or stage-2
// (axisB: grid columns) steps: in each band it belongs to, one broadcast
// over the members per maximal run of same-owner cells, or one local copy
// if it owns the band alone (the paper's special case). first is each
// band's first strip in the working matrix (-1 if not a member), strips
// their total. Every broadcast of the stage, the rank's or not, is numbered
// in band order, so a broadcast has one key on all its members; keys is
// the stage's count, the same for every rank.
func (s *schedule) bandOps(rank int, ax axis, procs [][]int) (ops []bandOp, first []int, strips, keys int) {
	l := &s.layout
	bs, cs, ownerAt, band0 := s.rowStart, s.colStart, l.OwnerAt, 0
	if ax == axisB {
		bs, cs, band0 = cs, bs, l.GridRows
		ownerAt = func(b, x int) int { return l.OwnerAt(x, b) }
	}
	first = make([]int, len(procs))
	for b := range procs {
		member, bcast := slices.Contains(procs[b], rank), len(procs[b]) > 1
		if first[b] = -1; member {
			first[b], strips = strips, strips+blas.Strips(bs[b+1]-bs[b])
		}
		for x0, x1 := 0, 1; x0 < len(cs)-1; x0, x1 = x1, x1+1 {
			for x1 < len(cs)-1 && (!bcast || ownerAt(b, x1) == ownerAt(b, x0)) {
				x1++
			}
			if member {
				o := bandOp{band: band0 + b, r0: bs[b], h: bs[b+1] - bs[b], c0: cs[x0], w: cs[x1] - cs[x0],
					off: (first[b]*l.N + cs[x0]) * blas.StripWidth}
				if ax == axisB {
					o.r0, o.c0, o.h, o.w = o.c0, o.r0, o.w, o.h
				}
				if bcast {
					o.procs, o.split, o.root, o.key = procs[b], x0 == 0, slices.Index(procs[b], ownerAt(b, x0)), keys
				}
				ops = append(ops, o)
			}
			if bcast {
				keys++
			}
		}
	}
	return ops, first, strips, keys
}

// findRects covers the cells todo accepts with rectangles: a maximal run of
// todo cells along a grid row, stacked over the consecutive grid rows that
// hold the identical run. compile runs it over every owned cell; a multiply
// runs it again only when a checkpoint restored some of them.
func (s *schedule) findRects(todo func(i, j int) bool) []rect {
	l := &s.layout
	// runEnd returns where the run of todo cells from (i, j) along row i ends.
	runEnd := func(i, j int) int {
		for j < l.GridCols && todo(i, j) {
			j++
		}
		return j
	}
	// isRun reports whether [j0, j1) is a maximal run of todo cells in row i.
	isRun := func(i, j0, j1 int) bool {
		return todo(i, j0) && (j0 == 0 || !todo(i, j0-1)) && runEnd(i, j0) == j1
	}
	var rects []rect
	for i0 := 0; i0 < l.GridRows; i0++ {
		for j0 := 0; j0 < l.GridCols; j0++ {
			// Each run starts one rectangle, unless the row above holds the
			// identical run and the rectangle already extends over it.
			j1 := runEnd(i0, j0)
			if !isRun(i0, j0, j1) || i0 > 0 && isRun(i0-1, j0, j1) {
				continue
			}
			i1 := i0 + 1
			for i1 < l.GridRows && isRun(i1, j0, j1) {
				i1++
			}
			r0, c0 := s.rowStart[i0], s.colStart[j0]
			h, w := s.rowStart[i1]-r0, s.colStart[j1]-c0
			flops := blas.GemmFlops(h, w, l.N)
			rects = append(rects, rect{i0: i0, i1: i1, j0: j0, j1: j1, r0: r0, c0: c0, h: h, w: w,
				flops: flops, label: fmt.Sprintf("dgemm[%d:%d,%d:%d]", i0, i1, j0, j1),
				attrs: [1]obs.Attr{{Key: "flops", Kind: obs.KindFloat, Float: flops}}})
		}
	}
	return rects
}
