package core

import (
	"math"
	"sync/atomic"
	"testing"
)

// PoisonRecycledSlabs makes the slab pool fill every recycled slab with NaN
// before handing it out again, for the rest of the test: a stage that fails
// to overwrite an element some DGEMM reads then yields NaN instead of
// silently reusing a previous multiply's (often identical) data. The
// returned counter says how many slabs were poisoned, so a test can prove it
// exercised recycled memory at all. Tests using it must not run in parallel
// with other tests of the package.
func PoisonRecycledSlabs(t testing.TB) *atomic.Int64 {
	var poisoned atomic.Int64
	prev := slabReuseHook
	slabReuseHook = func(s []float64) {
		poisoned.Add(1)
		for i := range s {
			s[i] = math.NaN()
		}
	}
	t.Cleanup(func() { slabReuseHook = prev })
	return &poisoned
}

// RandomLayout exposes the arbitrary-layout generator to the external tests.
var RandomLayout = randomLayout

// RefMultiply exposes the serial oracle.
var RefMultiply = refMultiply
