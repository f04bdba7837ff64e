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

// WorkingMatrixLens returns the set of slab lengths the ranks of a multiply
// under l draw for their WA and WB.
func WorkingMatrixLens(l *partition.Layout) map[int]bool {
	lens := map[int]bool{}
	s, err := scheduleFor(l)
	if err != nil {
		panic(err)
	}
	for _, rs := range s.ranks {
		wa, wb := rs.workLens(l.N)
		lens[wa], lens[wb] = true, true
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
