// Package sched turns the one-shot SummaGen engine into a job scheduler
// for a matmul service: requests are admitted against bounded global and
// per-tenant queues, a plan cache keyed by PlanKey pays the partition
// planning cost once per distinct plan, and a fixed pool of worker slots
// executes jobs, one at a time each and in arrival order, over either the
// in-process runtime (core.Multiply) or a loopback netmpi mesh
// (core.RunRank per rank over TCP, exercising the fault-tolerant runtime
// under concurrent load).
//
// The life of a job: Submit → admission (queue caps; typed QueueFullError
// on overflow, ErrDraining during shutdown) → queued → a free worker slot
// pops the queue head → the Planner picks the partition shape and areas
// (OptimalShape for three processors, column-based beyond) and runs the
// paper's memory admission check (core.CheckMemory) → the job runs in
// that slot → done/failed with a Report, a result digest,
// and — when a netmpi worker rank dies mid-collective — a rank-attributed
// *netmpi.PeerFailedError instead of a hang.
package sched

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// JobState is the lifecycle state of a job.
type JobState int

const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued JobState = iota
	// StatePlanning: popped by a worker; the partition plan is being
	// computed (or fetched from the plan cache).
	StatePlanning
	// StateRunning: the multiplication is executing on the pool.
	StateRunning
	// StateDone: finished successfully; Report and Digest are set.
	StateDone
	// StateFailed: finished with an error (plan rejection, runtime
	// failure, verification mismatch, or timeout).
	StateFailed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StatePlanning:
		return "planning"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// JobSpec describes one multiplication request.
type JobSpec struct {
	// Tenant attributes the job for per-tenant admission (may be "").
	Tenant string
	// N is the matrix dimension (A, B, C are N×N).
	N int
	// Shape requests a partition shape by name ("square-corner", …,
	// case-insensitive), "column-based" for the arbitrary-P heuristic, or
	// ""/"auto" to let the planner search for the minimum-communication
	// shape.
	Shape string
	// Speeds are relative processor speeds; nil uses the platform's
	// device models.
	Speeds []float64
	// UseFPM selects the functional-performance-model load-imbalancing
	// partitioner instead of constant proportional speeds (only
	// meaningful when Speeds is nil).
	UseFPM bool
	// Seed generates the deterministic random A and B.
	Seed int64
	// Verify checks the result against a serial reference after the run
	// (O(N³) on one core — for tests and small jobs).
	Verify bool
	// Class is the SLO class the job was admitted under ("" means the
	// default objective). It labels the SLO request/latency series and is
	// deliberately excluded from PlanKey: jobs of different classes still
	// share plan cache entries and plan-key routing.
	Class string
}

// Validate checks the spec's standalone invariants.
func (s *JobSpec) Validate() error {
	if s.N < 3 {
		return fmt.Errorf("sched: N = %d too small (need >= 3)", s.N)
	}
	for i, v := range s.Speeds {
		if v <= 0 {
			return fmt.Errorf("sched: speeds[%d] = %v must be positive", i, v)
		}
	}
	return nil
}

// JobView is an immutable snapshot of a job, safe to hold across scheduler
// progress.
type JobView struct {
	ID    string
	Spec  JobSpec
	State JobState
	// Plan is set once planning succeeds (shared, immutable).
	Plan *Plan
	// Report is set on StateDone (and on some failures, when the runtime
	// produced partial timings); immutable.
	Report *core.Report
	// Digest is matrix.Digest of the result matrix C, as 16 hex
	// digits; jobs with equal N and seed produce equal digests
	// whatever their shape, plan, runner or recovery path.
	Digest string
	// Verified is true when Spec.Verify was set and the result matched
	// the serial reference.
	Verified bool
	// Err is the terminal error for StateFailed.
	Err error
	// BatchSize is always 0: jobs are never batched. The field remains
	// only because the benchmark module (bench/) reads it; ROADMAP item 16
	// removes it.
	BatchSize int
	// Attempts is the number of survivor-replan recovery attempts this
	// job went through (0 = never failed).
	Attempts int
	// RecoveredFrom lists the original plan ranks dropped as casualties,
	// in failure order.
	RecoveredFrom []int
	// DegradedPeers is the subset of RecoveredFrom condemned proactively
	// by the gray-failure monitor (up-but-sick, not fail-stop).
	DegradedPeers []int
	// RecoveryTime is the wall time between the first rank failure and
	// the job's terminal state (zero when Attempts is 0).
	RecoveryTime time.Duration

	EnqueuedAt time.Time
	StartedAt  time.Time
	FinishedAt time.Time

	// Trace is the job's span recorder when Config.Observe is set (shared —
	// read it via Recorder.Spans, which snapshots; nil otherwise).
	Trace *obs.Recorder
	// AttemptStartedAt is the wall-clock start of the job's most recent run
	// attempt — the anchor for aligning the engine timeline (whose events
	// are relative to attempt start) with span time in merged trace
	// exports.
	AttemptStartedAt time.Time
}

// QueueFullError is the admission rejection: the global queue or the
// tenant's share of it is at capacity. Servers map it to 429.
type QueueFullError struct {
	// Tenant is set when the per-tenant cap rejected the job.
	Tenant string
	// Cap is the capacity that was hit.
	Cap int
}

func (e *QueueFullError) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("sched: tenant %q queue full (cap %d)", e.Tenant, e.Cap)
	}
	return fmt.Sprintf("sched: queue full (cap %d)", e.Cap)
}

// ErrDraining rejects submissions after Drain has begun. Servers map it
// to 503.
var ErrDraining = errors.New("sched: scheduler is draining")

// ErrJobTimeout fails a job whose run exceeded Config.JobTimeout. The
// underlying computation cannot be preempted mid-DGEMM; it finishes in the
// background and its result is discarded.
var ErrJobTimeout = errors.New("sched: job timed out")
