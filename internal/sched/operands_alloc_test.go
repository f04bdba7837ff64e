//go:build !race

package sched

import (
	"testing"

	"repro/internal/slab"
)

// TestJobOperandsAllocs: on a warm slab, drawing and filling a job's
// operands allocates only the three Dense headers.
func TestJobOperandsAllocs(t *testing.T) {
	run := func() {
		a, b, c := jobOperands(64, 3)
		slab.Put(a.Data)
		slab.Put(b.Data)
		slab.Put(c.Data)
	}
	if got := testing.AllocsPerRun(20, run); got > 3 {
		t.Errorf("jobOperands: %v allocs per job on a warm slab, want at most 3 (the Dense headers)", got)
	}
}
