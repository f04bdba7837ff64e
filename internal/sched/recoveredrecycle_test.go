package sched

import (
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/partition"
	"repro/internal/slab"
)

// operandSet remembers the backing arrays of the operands of every run that
// failed or was reported failed.
type operandSet struct {
	mu     sync.Mutex
	failed map[*float64]bool
}

func (w *operandSet) note(ms ...*matrix.Dense) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range ms {
		w.failed[&m.Data[0]] = true
	}
}

// lateCasualty runs every attempt on a real netmpi mesh and then, for the
// first attempts kill picks, reports a rank as dead although the run
// finished: the recovery attempt restores every cell the first one recorded
// (a socket kill lands in the broadcast stages, before any cell exists).
// The operands of every failed run, real or reported, go to watch.
type lateCasualty struct {
	*NetmpiRunner
	kill  func(jobID string) (rank int, ok bool)
	watch *operandSet
}

func (r *lateCasualty) Run(jobID string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	rep, err := r.NetmpiRunner.Run(jobID, plan, a, b, c, opts)
	if rank, ok := r.kill(jobID); ok && err == nil && opts.Epoch == 0 {
		rep, err = nil, &netmpi.PeerFailedError{Rank: rank, Op: "bcast", Err: io.EOF}
	}
	if err != nil {
		r.watch.note(a, b, c)
	}
	return rep, err
}

// TestRecoveredOperandsRecycleSafely: the operands of jobs that failed an
// attempt go back to the slab free list like every other job's and never
// change a result. Over a hundred recoverable netmpi jobs (N ∈ {64, 96},
// the four paper shapes) run two at a time while every recycled buffer is
// NaN-filled before reuse. A seeded quarter of them lose a rank on their
// first attempt — half to a socket kill at frame 1 or 2, half after every
// cell was recorded — so recovered jobs, which resume on the C their failed
// attempt wrote, interleave with clean ones on one free list. Every digest
// must equal the fault-free one, and the run must have restored cells,
// recovered from both faults and reused the operands of failed runs.
func TestRecoveredOperandsRecycleSafely(t *testing.T) {
	const jobs, seed = 104, 34
	var specs []JobSpec
	for i := 0; i < jobs; i++ {
		specs = append(specs, JobSpec{
			N:     []int{64, 96}[i%2],
			Shape: partition.Shapes[(i/2)%len(partition.Shapes)].String(),
			Seed:  int64(i % 3),
		})
	}
	ref := newTestScheduler(t, nil)
	want := runSpecs(t, ref, specs)

	// fault draws a job's fault from its id: none for three jobs in four,
	// else a victim rank and whether it dies late (after the run) or at
	// frame 1 or 2 of its first attempt (chaosHook's injector).
	fault := func(jobID string) (victim, frame int, late, ok bool) {
		h := fnv.New64a()
		h.Write([]byte(jobID))
		rng := rand.New(rand.NewSource(seed + int64(h.Sum64())))
		if rng.Intn(4) != 0 {
			return 0, 0, false, false
		}
		return rng.Intn(3), 1 + rng.Intn(2), rng.Intn(2) == 0, true
	}
	var kills [3][2]func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn
	for r := range kills {
		for f := range kills[r] {
			kills[r][f] = chaosHook(r, f+1)
		}
	}
	runner := &lateCasualty{
		NetmpiRunner: &NetmpiRunner{
			OpTimeout:         time.Second,
			HeartbeatInterval: 100 * time.Millisecond,
			WrapConn: func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
				if victim, frame, late, ok := fault(jobID); ok && !late {
					return kills[victim][frame-1](jobID, epoch, rank)
				}
				return nil
			},
		},
		kill: func(jobID string) (int, bool) {
			victim, _, late, ok := fault(jobID)
			return victim, ok && late
		},
		watch: &operandSet{failed: map[*float64]bool{}},
	}

	watch := runner.watch
	var reused int
	defer slab.SetReuseHook(func(s []float64) {
		watch.mu.Lock()
		if watch.failed[&s[:1][0]] {
			reused++
		}
		watch.mu.Unlock()
		for i := range s {
			s[i] = math.NaN()
		}
	})()
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 2
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = 10 * time.Millisecond
		c.Runner = runner
	})
	recovered := map[bool]int{} // by late: socket kill, late casualty
	for i, v := range runSpecs(t, s, specs) {
		if v.Digest != want[i].Digest {
			t.Errorf("job %s (%+v, attempts %d): digest %s, fault-free %s",
				v.ID, specs[i], v.Attempts, v.Digest, want[i].Digest)
		}
		if _, _, late, _ := fault(v.ID); v.Attempts > 0 {
			recovered[late]++
		}
	}
	m := s.Metrics()
	if m.Counters.CellsRedone != 0 {
		t.Errorf("%d checkpointed cells were redone", m.Counters.CellsRedone)
	}
	watch.mu.Lock()
	defer watch.mu.Unlock()
	if recovered[false] == 0 || recovered[true] == 0 || m.Counters.CellsRestored == 0 || reused == 0 {
		t.Fatalf("recovered %d jobs from socket kills and %d from late casualties, restored %d cells, reused %d operand buffers of failed runs: the run did not mix recovered and clean jobs on one free list",
			recovered[false], recovered[true], m.Counters.CellsRestored, reused)
	}
	t.Logf("recovered %d jobs from socket kills and %d from late casualties, restored %d cells, reused %d operand buffers of failed runs",
		recovered[false], recovered[true], m.Counters.CellsRestored, reused)
}
