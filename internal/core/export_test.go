package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/slab"
)

// PoisonRecycledSlabs makes the slab free list fill every recycled buffer
// with NaN before handing it out again, for the rest of the test: a stage
// that fails to overwrite an element some DGEMM reads then yields NaN instead
// of silently reusing a previous multiply's (often identical) data. The
// returned counter says how many buffers were poisoned, so a test can prove
// it exercised recycled memory at all. Tests using it must not run in
// parallel with other tests of the package.
func PoisonRecycledSlabs(t testing.TB) *atomic.Int64 {
	var poisoned atomic.Int64
	t.Cleanup(slab.SetReuseHook(func(s []float64) {
		poisoned.Add(1)
		for i := range s {
			s[i] = math.NaN()
		}
	}))
	return &poisoned
}

// RandomLayout exposes the arbitrary-layout generator to the external tests.
var RandomLayout = randomLayout

// RefMultiply exposes the serial oracle.
var RefMultiply = refMultiply
