package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/partition"
	"repro/internal/slab"
)

// PoisonRecycledSlabs makes the slab free list fill every recycled buffer
// with NaN before handing it out again, for the rest of the test: a stage
// that fails to overwrite an element some DGEMM reads then yields NaN instead
// of silently reusing a previous multiply's (often identical) data. The
// returned log counts the poisoned buffers, so a test can prove it exercised
// recycled memory at all, and while armed records which ones were handed
// out. Tests using it must not run in parallel with other tests of the
// package.
func PoisonRecycledSlabs(t testing.TB) *ReuseLog {
	r := &ReuseLog{}
	t.Cleanup(slab.SetReuseHook(r.hook))
	return r
}

// ReuseLog is the reuse hook PoisonRecycledSlabs installs.
type ReuseLog struct {
	poisoned atomic.Int64
	mu       sync.Mutex
	handed   map[*float64]int // armed: recycled buffer → length it was handed out at
}

func (r *ReuseLog) hook(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
	r.poisoned.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.handed != nil {
		r.handed[&s[:1][0]] = len(s)
	}
}

// Count returns how many recycled buffers have been poisoned.
func (r *ReuseLog) Count() int64 { return r.poisoned.Load() }

// Arm starts recording every recycled buffer handed out.
func (r *ReuseLog) Arm() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handed = map[*float64]int{}
}

// Disarm stops recording and returns what was handed out since Arm, keyed by
// the buffer's first element, with the length each was handed out at.
func (r *ReuseLog) Disarm() map[*float64]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.handed
	r.handed = nil
	return h
}

// DrawLog records the length of every recycled buffer of a working-matrix
// length the slab free list hands out.
type DrawLog struct {
	lens map[int]bool
	mu   sync.Mutex
	seen []int
}

// LogRecycledDraws starts a DrawLog of the lengths in lens for the rest of
// the test. Tests using it must not run in parallel with other tests of the
// package.
func LogRecycledDraws(t testing.TB, lens map[int]bool) *DrawLog {
	d := &DrawLog{lens: lens}
	t.Cleanup(slab.SetReuseHook(func(s []float64) {
		if d.lens[len(s)] {
			d.mu.Lock()
			d.seen = append(d.seen, len(s))
			d.mu.Unlock()
		}
	}))
	return d
}

// Take returns the lengths drawn since the last Take, in the order drawn.
func (d *DrawLog) Take() []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := d.seen
	d.seen = nil
	return seen
}

// WorkingMatrixDraws returns the lengths of the working matrices a multiply
// under l draws, in rank order: rank 0's WA and WB, then rank 1's, and so on.
func WorkingMatrixDraws(l *partition.Layout) []int {
	s, err := scheduleFor(l)
	if err != nil {
		panic(err)
	}
	var draws []int
	for _, rs := range s.ranks {
		wa, wb := rs.workLens(l.N)
		draws = append(draws, wa, wb)
	}
	return draws
}

// WorkingMatrixLens returns the set of slab lengths the ranks of a multiply
// under l draw for their WA and WB.
func WorkingMatrixLens(l *partition.Layout) map[int]bool {
	lens := map[int]bool{}
	for _, n := range WorkingMatrixDraws(l) {
		lens[n] = true
	}
	return lens
}

// FailComputeStage runs f with every rank's compute stage failing in place
// of its first DGEMM, as a failing kernel would.
func FailComputeStage(f func()) {
	computeFault = errors.New("core: injected DGEMM failure")
	defer func() { computeFault = nil }()
	f()
}

// RandomLayout exposes the arbitrary-layout generator to the external tests.
var RandomLayout = randomLayout

// RefMultiply exposes the serial oracle.
var RefMultiply = refMultiply
