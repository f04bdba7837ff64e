package recover

import "sync"

// Binding is one job's checkpoint record: it keeps the coordinates of the
// cells the job's attempts finished, implements the core.Checkpointer hook,
// and matches them against the cells of a (possibly replanned) layout. The
// values stay in the job's C, which every attempt writes. Cells are matched
// by exact rectangle coverage: a cell of the new layout is restored only
// when recorded rectangles cover every one of its elements, which stays
// correct even when recovery attempts under different partitions leave
// overlapping rectangles behind — every finished element of C holds the
// same final value, because each C element has exactly one value in an
// exact-arithmetic-order-stable kernel.
//
// The zero Binding is empty and ready to use. A Binding is safe for
// concurrent use by all ranks of a run.
type Binding struct {
	mu    sync.Mutex
	cells []Cell
	// scratch holds the two rectangle lists coveredLocked ping-pongs
	// between, kept so that a coverage check allocates nothing.
	scratch [2][]rect
	// restored counts cells skipped because the checkpoint covered them;
	// computed counts cells that went through a DGEMM; redone counts
	// computed cells whose area was already fully covered — by
	// construction always zero, exported as an invariant check.
	restored, computed, redone int
}

// rect is a half-open rectangle [r0,r1)×[c0,c1) in global C coordinates.
type rect struct{ r0, c0, r1, c1 int }

func cellRect(c Cell) rect { return rect{c.Row, c.Col, c.Row + c.H, c.Col + c.W} }

func (r rect) empty() bool { return r.r0 >= r.r1 || r.c0 >= r.c1 }

func intersect(a, b rect) rect {
	return rect{max(a.r0, b.r0), max(a.c0, b.c0), min(a.r1, b.r1), min(a.c1, b.c1)}
}

// subtract removes s from every rectangle in rs, splitting remainders into
// at most four pieces each, and appends what is left to out, which must not
// share memory with rs.
func subtract(out, rs []rect, s rect) []rect {
	for _, r := range rs {
		in := intersect(r, s)
		if in.empty() {
			out = append(out, r)
			continue
		}
		if r.r0 < in.r0 {
			out = append(out, rect{r.r0, r.c0, in.r0, r.c1})
		}
		if in.r1 < r.r1 {
			out = append(out, rect{in.r1, r.c0, r.r1, r.c1})
		}
		if r.c0 < in.c0 {
			out = append(out, rect{in.r0, r.c0, in.r1, in.c0})
		}
		if in.c1 < r.c1 {
			out = append(out, rect{in.r0, in.c1, in.r1, r.c1})
		}
	}
	return out
}

// coveredLocked reports whether the target rectangle is fully covered by
// the recorded cells, handling overlaps exactly via region subtraction.
// The remainder ping-pongs between the Binding's two scratch lists.
func (b *Binding) coveredLocked(target rect) bool {
	remaining, next := append(b.scratch[0][:0], target), b.scratch[1]
	for _, cell := range b.cells {
		if len(remaining) == 0 {
			break
		}
		remaining, next = subtract(next[:0], remaining, cellRect(cell)), remaining
	}
	b.scratch = [2][]rect{remaining, next}
	return len(remaining) == 0
}

// Restore implements core.Checkpointer: it reports whether the recorded
// cells cover every element of the h×w cell at (r0, c0).
func (b *Binding) Restore(r0, c0, h, w int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.coveredLocked(rect{r0, c0, r0 + h, c0 + w}) {
		return false
	}
	b.restored++
	return true
}

// Save implements core.Checkpointer: it records the cell's coordinates.
func (b *Binding) Save(r0, c0, h, w int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.computed++
	if b.coveredLocked(rect{r0, c0, r0 + h, c0 + w}) {
		b.redone++ // invariant breach: this cell should have been restored
	}
	b.cells = append(b.cells, Cell{Row: r0, Col: c0, H: h, W: w})
}

// Cells returns the cells saved so far, in save order.
func (b *Binding) Cells() []Cell {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Cell(nil), b.cells...)
}

// Stats returns the restore/compute counters accumulated so far.
func (b *Binding) Stats() (restored, computed, redone int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.restored, b.computed, b.redone
}
