package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/netmpi"
	"repro/internal/partition"
	"repro/internal/sched"
)

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// N is the matrix dimension (required; 3 <= N <= server MaxN).
	N int `json:"n"`
	// Shape is a shape name (case-insensitive), "column-based", or
	// ""/"auto" for the planner's minimum-communication search.
	Shape string `json:"shape,omitempty"`
	// Speeds are relative processor speeds; omit to use the platform
	// device models.
	Speeds []float64 `json:"speeds,omitempty"`
	// UseFPM selects functional-performance-model partitioning.
	UseFPM bool `json:"use_fpm,omitempty"`
	// Seed generates the deterministic random inputs.
	Seed int64 `json:"seed,omitempty"`
	// Tenant attributes the job for per-tenant admission.
	Tenant string `json:"tenant,omitempty"`
	// Verify re-checks the result against a serial reference (bounded by
	// the server's MaxVerifyN).
	Verify bool `json:"verify,omitempty"`
	// Class is the SLO class the job should count against ("" uses the
	// default objective). The X-SLO-Class header fills it when the body
	// leaves it empty — that is how the router's tenant→class config
	// rides along without rewriting the body.
	Class string `json:"class,omitempty"`
}

// SubmitResponse is the 202 body: where to poll.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Location is the status URL ("/jobs/{id}").
	Location string `json:"location"`
}

// HealthStatus is the GET /healthz body: liveness plus the scheduler's
// load snapshot — the depth signal least-loaded cluster routing consumes.
type HealthStatus struct {
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Instance is the configured instance ID ("" standalone).
	Instance string `json:"instance,omitempty"`
	// SLOFiring counts currently firing burn-rate alerts on this
	// instance; least-loaded routing penalizes instances that are burning
	// error budget.
	SLOFiring int `json:"slo_firing,omitempty"`
	sched.LoadSnapshot
}

// PlanDTO is the wire form of a partition plan.
type PlanDTO struct {
	Shape           string  `json:"shape"`
	Areas           []int   `json:"areas"`
	OptimalityRatio float64 `json:"optimality_ratio,omitempty"`
	MemPerRankBytes []int64 `json:"mem_per_rank_bytes,omitempty"`
}

// ErrorDTO is the typed error surface of a failed job or a rejected
// request.
type ErrorDTO struct {
	// Kind classifies the failure: "bad_request", "bad_shape", "memory",
	// "timeout", "peer_failed", "queue_full", "draining", "internal".
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Rank is the failed worker rank for kind "peer_failed".
	Rank *int `json:"rank,omitempty"`
	// Op is the collective during which the failure was detected, for
	// kind "peer_failed".
	Op string `json:"op,omitempty"`
	// ValidShapes lists accepted shape names for kind "bad_shape".
	ValidShapes []string `json:"valid_shapes,omitempty"`
}

// JobStatus is the GET /jobs/{id} body.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	Class  string `json:"class,omitempty"`
	State  string `json:"state"`
	// BatchSize is always 0, so batch_size never appears in the JSON: jobs
	// are never batched. The field remains only because the benchmark
	// module (bench/) reads it; ROADMAP item 16 removes it.
	BatchSize int          `json:"batch_size,omitempty"`
	Plan      *PlanDTO     `json:"plan,omitempty"`
	Report    *core.Report `json:"report,omitempty"`
	Digest    string       `json:"digest,omitempty"`
	Verified  bool         `json:"verified,omitempty"`
	Error     *ErrorDTO    `json:"error,omitempty"`
	// Attempts counts survivor-replan recovery attempts; RecoveredFrom
	// lists the original ranks dropped as casualties, in failure order;
	// DegradedPeers lists the subset condemned by the gray-failure
	// detector (up-but-sick, proactively replaced before any hard
	// timeout); RecoverySeconds is the wall time from first failure to
	// the terminal state.
	Attempts        int     `json:"attempts,omitempty"`
	RecoveredFrom   []int   `json:"recovered_from,omitempty"`
	DegradedPeers   []int   `json:"degraded_peers,omitempty"`
	RecoverySeconds float64 `json:"recovery_seconds,omitempty"`

	EnqueuedAt time.Time  `json:"enqueued_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// jobStatus converts a scheduler snapshot to the wire form.
func jobStatus(v sched.JobView) JobStatus {
	st := JobStatus{
		ID:              v.ID,
		Tenant:          v.Spec.Tenant,
		Class:           v.Spec.Class,
		State:           v.State.String(),
		Report:          v.Report,
		Digest:          v.Digest,
		Verified:        v.Verified,
		Attempts:        v.Attempts,
		RecoveredFrom:   v.RecoveredFrom,
		DegradedPeers:   v.DegradedPeers,
		RecoverySeconds: v.RecoveryTime.Seconds(),
		EnqueuedAt:      v.EnqueuedAt,
	}
	if v.Plan != nil {
		st.Plan = &PlanDTO{
			Shape:           v.Plan.Shape,
			Areas:           v.Plan.Areas,
			OptimalityRatio: v.Plan.OptimalityRatio,
			MemPerRankBytes: v.Plan.MemPerRankBytes,
		}
	}
	if !v.StartedAt.IsZero() {
		t := v.StartedAt
		st.StartedAt = &t
	}
	if !v.FinishedAt.IsZero() {
		t := v.FinishedAt
		st.FinishedAt = &t
	}
	if v.Err != nil {
		st.Error = errorDTO(v.Err)
	}
	return st
}

// errorDTO classifies an error into the typed wire form. The peer-failure
// case is the one the ISSUE cares most about: a dead netmpi worker must
// surface as a rank-attributed, machine-readable failure.
func errorDTO(err error) *ErrorDTO {
	var pf *netmpi.PeerFailedError
	if errors.As(err, &pf) {
		r := pf.Rank
		return &ErrorDTO{Kind: "peer_failed", Message: err.Error(), Rank: &r, Op: pf.Op}
	}
	var ue *partition.UnknownShapeError
	if errors.As(err, &ue) {
		return &ErrorDTO{Kind: "bad_shape", Message: err.Error(), ValidShapes: ue.Valid}
	}
	var me *sched.MemoryError
	if errors.As(err, &me) {
		return &ErrorDTO{Kind: "memory", Message: err.Error()}
	}
	if errors.Is(err, sched.ErrJobTimeout) {
		return &ErrorDTO{Kind: "timeout", Message: err.Error()}
	}
	var qf *sched.QueueFullError
	if errors.As(err, &qf) {
		return &ErrorDTO{Kind: "queue_full", Message: err.Error()}
	}
	if errors.Is(err, sched.ErrDraining) {
		return &ErrorDTO{Kind: "draining", Message: err.Error()}
	}
	return &ErrorDTO{Kind: "internal", Message: err.Error()}
}

// ErrorKind returns the classification used in failure metrics.
func errorKind(err error) string { return errorDTO(err).Kind }

// validate checks the request against the server's limits, returning a
// 400-ready ErrorDTO on violation.
func (s *Server) validate(req *SubmitRequest) *ErrorDTO {
	if req.N < 3 {
		return &ErrorDTO{Kind: "bad_request", Message: fmt.Sprintf("n = %d too small (need >= 3)", req.N)}
	}
	if req.N > s.maxN {
		return &ErrorDTO{Kind: "bad_request", Message: fmt.Sprintf("n = %d exceeds the server limit %d", req.N, s.maxN)}
	}
	if req.Verify && req.N > s.maxVerifyN {
		return &ErrorDTO{Kind: "bad_request",
			Message: fmt.Sprintf("verify is limited to n <= %d (serial reference is O(n³))", s.maxVerifyN)}
	}
	for i, v := range req.Speeds {
		if v <= 0 {
			return &ErrorDTO{Kind: "bad_request", Message: fmt.Sprintf("speeds[%d] = %v must be positive", i, v)}
		}
	}
	if err := validClass(req.Class); err != nil {
		return &ErrorDTO{Kind: "bad_request", Message: err.Error()}
	}
	// Reject unknown shape names at the door, with the valid list —
	// cheaper for the client than a failed job.
	switch name := req.Shape; name {
	case "", "auto", "column-based":
	default:
		if _, err := partition.ParseShape(name); err != nil {
			return errorDTO(err)
		}
	}
	return nil
}

// validClass bounds an SLO class name: it becomes a Prometheus label
// value and a JSON key, so keep it to a short identifier.
func validClass(class string) error {
	if len(class) > 64 {
		return fmt.Errorf("class %q too long (max 64)", class)
	}
	for _, r := range class {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') && (r < '0' || r > '9') && r != '-' && r != '_' {
			return fmt.Errorf("class %q may only contain letters, digits, '-', '_'", class)
		}
	}
	return nil
}

// httpStatus maps a submit rejection to its status code.
func submitStatus(err error) int {
	var qf *sched.QueueFullError
	switch {
	case errors.As(err, &qf):
		return http.StatusTooManyRequests
	case errors.Is(err, sched.ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
