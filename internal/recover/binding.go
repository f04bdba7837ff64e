package recover

import (
	"sync"

	"repro/internal/slab"
)

// Binding is one job's checkpoint: it keeps the cells the job's attempts
// finished, implements the core.Checkpointer hook, and remaps the cells
// onto the cells of a (possibly replanned) layout. Cells are matched by
// exact rectangle coverage: a cell of the new layout is restored only when
// checkpointed rectangles cover every one of its elements, which stays
// correct even when recovery attempts under different partitions leave
// overlapping rectangles behind — every checkpointed element holds the same
// final value, because each C element has exactly one value in an
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
// the checkpointed cells, handling overlaps exactly via region subtraction.
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

// Restore implements core.Checkpointer.
func (b *Binding) Restore(r0, c0, h, w int, dst []float64, stride int) bool {
	target := rect{r0, c0, r0 + h, c0 + w}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.coveredLocked(target) {
		return false
	}
	for _, cell := range b.cells {
		in := intersect(target, cellRect(cell))
		if in.empty() {
			continue
		}
		for r := in.r0; r < in.r1; r++ {
			srcRow := cell.Data[(r-cell.Row)*cell.W+(in.c0-cell.Col):]
			dstRow := dst[(r-r0)*stride+(in.c0-c0):]
			copy(dstRow[:in.c1-in.c0], srcRow[:in.c1-in.c0])
		}
	}
	b.restored++
	return true
}

// Save implements core.Checkpointer. The cell is copied out of src once,
// into a buffer from the slab free list that the Binding keeps, never
// writing it, until Release returns it.
func (b *Binding) Save(r0, c0, h, w int, src []float64, stride int) {
	cell := Cell{Row: r0, Col: c0, H: h, W: w, Data: slab.Get(h * w)}
	for r := 0; r < h; r++ {
		copy(cell.Data[r*w:(r+1)*w], src[r*stride:r*stride+w])
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.computed++
	if b.coveredLocked(rect{r0, c0, r0 + h, c0 + w}) {
		b.redone++ // invariant breach: this cell should have been restored
	}
	b.cells = append(b.cells, cell)
}

// Release hands the Data of every cell back to the slab free list and
// forgets every cell, so a later Restore finds nothing. Release may be
// called only once no Save or Restore can still run (every rank of every
// run that used the Binding has returned) and no one still reads the Data
// of cells from Cells — the slab package's ownership rules. A caller that
// cannot prove both leaves the cells to the garbage collector. A second
// Release is a no-op; a Save after Release checkpoints as before.
func (b *Binding) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, cell := range b.cells {
		slab.Put(cell.Data)
	}
	clear(b.cells)
	b.cells = b.cells[:0]
}

// Cells returns the cells saved so far, in save order. Their Data belongs
// to the Binding: the caller must not write it, nor read it after Release.
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
