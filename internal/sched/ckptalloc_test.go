//go:build !race

package sched

import (
	"runtime"
	"testing"
	"time"
)

// TestRecoverableJobAllocBytes: with recovery armed, a warm netmpi job's
// checkpoint costs no garbage. Every C cell is copied once into a slab
// buffer that goes back to the free list when the job finishes cleanly, so
// an N=256 job allocates less than half of what the copies alone would
// (N²·8 bytes) if each were a fresh allocation — averaged over eight jobs
// after four warm-up jobs, Observe off.
func TestRecoverableJobAllocBytes(t *testing.T) {
	const n, warm, measured = 256, 4, 8
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.Runner = &NetmpiRunner{OpTimeout: 10 * time.Second}
	})
	spec := JobSpec{N: n, Shape: "square-corner", Seed: 9}
	run := func() {
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, s, v.ID, 60*time.Second); got.State != StateDone || got.Attempts != 0 {
			t.Fatalf("job %s: state %v attempts %d err %v", v.ID, got.State, got.Attempts, got.Err)
		}
	}
	for i := 0; i < warm; i++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / measured
	if ceiling := uint64(n * n * 8 / 2); perJob >= ceiling {
		t.Fatalf("a warm recoverable N=%d job allocates %d B, ceiling %d", n, perJob, ceiling)
	}
	t.Logf("a warm recoverable N=%d job allocates %d B", n, perJob)
}
