package sched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/obs"
	"repro/internal/recover"
	"repro/internal/slab"
)

// Config parameterizes a Scheduler.
type Config struct {
	// Workers is the number of concurrent worker slots (default 2). Each
	// running job internally uses Layout.P rank goroutines, so total
	// compute parallelism is Workers × P.
	Workers int
	// QueueCap bounds the number of queued (not yet dispatched) jobs
	// (default 64). Submissions past it get a *QueueFullError.
	QueueCap int
	// TenantCap bounds one tenant's queued + in-flight jobs (0 disables
	// per-tenant admission).
	TenantCap int
	// JobTimeout bounds one job's run; past it the job fails with
	// ErrJobTimeout (0 disables). The underlying numerics cannot be
	// preempted — the slot moves on and the orphaned computation's
	// result is discarded when it completes.
	JobTimeout time.Duration
	// Planner resolves specs to plans (required).
	Planner *Planner
	// Runner executes planned jobs (required).
	Runner Runner
	// OnJobDone, when non-nil, observes every terminal job (called
	// without internal locks held) — the serving layer's metrics hook.
	OnJobDone func(JobView)
	// MaxRecoveryAttempts enables survivor-replan recovery: when a run
	// fails with a rank-attributed *netmpi.PeerFailedError, the casualty
	// is dropped, the job replanned over the survivors and resumed from
	// its checkpoint, up to this many times per job (0 disables: the
	// first failure is terminal). Only effective for runners advertising
	// RecoverableRunner (netmpi); others run without checkpoint overhead.
	MaxRecoveryAttempts int
	// RecoveryBackoff is the pause before the first recovery attempt
	// (default 50 ms), doubling per attempt with ±25% jitter. A drain
	// aborts the pause immediately.
	RecoveryBackoff time.Duration
	// Observe enables per-job span recording: every job carries an
	// obs.Recorder tracing admission, queue wait, planning, each run
	// attempt (with engine stages underneath) and recovery, exposed via
	// JobView.Trace. Off by default; the disabled path records nothing and
	// allocates nothing.
	Observe bool
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.RecoveryBackoff <= 0 {
		cfg.RecoveryBackoff = 50 * time.Millisecond
	}
	if cfg.Planner == nil {
		return cfg, fmt.Errorf("sched: Config.Planner is required")
	}
	if cfg.Runner == nil {
		return cfg, fmt.Errorf("sched: Config.Runner is required")
	}
	return cfg, nil
}

// job is the scheduler-internal mutable job record; all fields are
// guarded by Scheduler.mu.
type job struct {
	id       string
	spec     JobSpec
	state    JobState
	plan     *Plan
	report   *core.Report
	digest   string
	verified bool
	err      error

	// Recovery state: how many survivor-replan attempts ran, which
	// original ranks were dropped (in casualty order), which of those were
	// gray-failure verdicts (up-but-sick, condemned proactively), and the
	// wall time between the first failure and the final outcome.
	attempts      int
	recoveredFrom []int
	degradedPeers []int
	recoveryTime  time.Duration

	// Observability (Config.Observe): the job's span recorder, its root
	// span, the queue-wait span ended at dequeue and the run span ended at
	// finish.
	rec     *obs.Recorder
	root    obs.SpanHandle
	spQueue obs.SpanHandle
	spRun   obs.SpanHandle

	enqueued, started, finished time.Time
}

// Counters are the scheduler's monotonic totals.
type Counters struct {
	Submitted         uint64
	Done              uint64
	Failed            uint64
	RejectedQueueFull uint64
	RejectedTenant    uint64
	RejectedDraining  uint64
	TimedOut          uint64
	// Recoveries counts survivor-replan attempts started; RecoveredJobs
	// counts jobs that completed after at least one recovery;
	// RecoveryFailures counts jobs that still failed after attempting
	// recovery. GrayRecoveries counts the subset of recoveries triggered
	// proactively by a gray-failure verdict (*netmpi.DegradedPeerError)
	// rather than a hard fail-stop.
	Recoveries       uint64
	RecoveredJobs    uint64
	RecoveryFailures uint64
	GrayRecoveries   uint64
	// CellsRestored / CellsRecomputed / CellsRedone total the per-job
	// checkpoint accounting: cells resumed from checkpoint, cells that
	// went through a DGEMM, and cells recomputed despite full checkpoint
	// coverage (an invariant breach — should stay 0).
	CellsRestored   uint64
	CellsRecomputed uint64
	CellsRedone     uint64
}

// Metrics is a point-in-time snapshot for the /metrics endpoint.
type Metrics struct {
	QueueDepth int
	InFlight   int
	Workers    int
	QueueCap   int
	Draining   bool
	Counters   Counters
	// PlanCacheHits / PlanCacheMisses are the planner's cache totals —
	// the quantity plan-key affinity routing exists to maximize.
	PlanCacheHits   uint64
	PlanCacheMisses uint64
	// Net and CommVolumes are set when the Runner implements NetReporter
	// (the netmpi runtime): per-peer transport counters and the per-shape
	// predicted-vs-observed communication-volume audit.
	Net         *NetCounters
	CommVolumes map[string]CommVolume
}

// Scheduler is the admission-controlled job scheduler over a fixed pool of
// worker slots.
type Scheduler struct {
	cfg Config

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*job
	jobs       map[string]*job
	tenantLoad map[string]int
	inflight   int
	draining   bool
	stopped    bool
	nextID     int
	counters   Counters

	wg sync.WaitGroup // worker goroutines

	// drainStart closes the moment Drain begins: recovery backoffs abort
	// immediately instead of delaying shutdown. lifeCtx cancels when a
	// drain completes or is abandoned, unsticking netmpi dial/reconnect
	// waits of any still-running job.
	drainStart chan struct{}
	drainOnce  sync.Once
	lifeCtx    context.Context
	lifeCancel context.CancelFunc
}

// New builds a scheduler and starts its Workers worker goroutines.
func New(cfg Config) (*Scheduler, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:        c,
		jobs:       map[string]*job{},
		tenantLoad: map[string]int{},
		drainStart: make(chan struct{}),
	}
	s.lifeCtx, s.lifeCancel = context.WithCancel(context.Background())
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(c.Workers)
	for i := 0; i < c.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Submit admits a job, returning its queued snapshot, or a typed
// rejection: *QueueFullError (global or per-tenant cap) or ErrDraining.
func (s *Scheduler) Submit(spec JobSpec) (JobView, error) {
	if err := spec.Validate(); err != nil {
		return JobView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		s.counters.RejectedDraining++
		return JobView{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.counters.RejectedQueueFull++
		return JobView{}, &QueueFullError{Cap: s.cfg.QueueCap}
	}
	if s.cfg.TenantCap > 0 && s.tenantLoad[spec.Tenant] >= s.cfg.TenantCap {
		s.counters.RejectedTenant++
		return JobView{}, &QueueFullError{Tenant: spec.Tenant, Cap: s.cfg.TenantCap}
	}
	s.nextID++
	id := fmt.Sprintf("j-%06d", s.nextID)
	j := &job{
		id:       id,
		spec:     spec,
		state:    StateQueued,
		enqueued: time.Now(),
	}
	if s.cfg.Observe {
		j.rec = obs.NewRecorder()
		j.root = j.rec.Root("job").Str("id", id).Str("tenant", spec.Tenant).
			Int("n", int64(spec.N)).Str("shape", spec.Shape)
		// Admission is instantaneous from the job's point of view: the
		// checks above already passed by the time the recorder exists.
		j.root.Child("admission").End()
		j.spQueue = j.root.Child("queue")
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	s.tenantLoad[spec.Tenant]++
	s.counters.Submitted++
	s.cond.Broadcast()
	return s.viewLocked(j), nil
}

// Get returns a snapshot of the job, if known.
func (s *Scheduler) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.viewLocked(j), true
}

// Metrics returns a snapshot of queue and pool state.
func (s *Scheduler) Metrics() Metrics {
	s.mu.Lock()
	m := Metrics{
		QueueDepth: len(s.queue),
		InFlight:   s.inflight,
		Workers:    s.cfg.Workers,
		QueueCap:   s.cfg.QueueCap,
		Draining:   s.draining,
		Counters:   s.counters,
	}
	s.mu.Unlock()
	m.PlanCacheHits, m.PlanCacheMisses = s.cfg.Planner.CacheStats()
	if nr, ok := s.cfg.Runner.(NetReporter); ok {
		net, vols := nr.NetMetrics()
		m.Net = &net
		m.CommVolumes = vols
	}
	return m
}

// LoadSnapshot is the scheduler's instantaneous load, the routing signal a
// cluster front-end needs: how deep the queue is, how much is running, and
// which tenants own the load. Serves as the /healthz payload.
type LoadSnapshot struct {
	QueueDepth int            `json:"queue_depth"`
	InFlight   int            `json:"inflight"`
	Workers    int            `json:"workers"`
	QueueCap   int            `json:"queue_cap"`
	Draining   bool           `json:"draining"`
	PerTenant  map[string]int `json:"per_tenant,omitempty"`
	// GrayRecoveries totals this instance's gray-failure-triggered
	// recoveries; a router can read a rising value as "this instance's
	// ranks keep going sick" and steer load elsewhere (see
	// router.LeastLoaded's gray penalty).
	GrayRecoveries uint64 `json:"gray_recoveries,omitempty"`
}

// Load returns queued + in-flight — the scalar a least-loaded router
// compares.
func (l LoadSnapshot) Load() int { return l.QueueDepth + l.InFlight }

// LoadSnapshot returns the scheduler's current load, including per-tenant
// queued + in-flight counts.
func (s *Scheduler) LoadSnapshot() LoadSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := LoadSnapshot{
		QueueDepth:     len(s.queue),
		InFlight:       s.inflight,
		Workers:        s.cfg.Workers,
		QueueCap:       s.cfg.QueueCap,
		Draining:       s.draining,
		GrayRecoveries: s.counters.GrayRecoveries,
	}
	if len(s.tenantLoad) > 0 {
		ls.PerTenant = make(map[string]int, len(s.tenantLoad))
		for t, n := range s.tenantLoad {
			ls.PerTenant[t] = n
		}
	}
	return ls
}

// Drain stops admission and waits for the queue and all in-flight jobs to
// finish, then stops the workers. It returns ctx.Err() if the context
// expires first (in-flight work keeps running; the process is expected to
// exit shortly after).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.drainStart) })
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.queue) > 0 || s.inflight > 0 {
			s.cond.Wait()
		}
		s.stopped = true
		s.cond.Broadcast()
		s.mu.Unlock()
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Let the waiter goroutine stop the workers whenever the
		// backlog does finish; the caller is abandoning the drain.
		err = ctx.Err()
	}
	// Canceling the life context closes the meshes of runs still going
	// (an abandoned drain's, a timed-out job's), so they fail instead of
	// leaking; then the meshes waiting for a next job are closed.
	s.lifeCancel()
	if ic, ok := s.cfg.Runner.(idleCloser); ok {
		ic.CloseIdle()
	}
	return err
}

func (s *Scheduler) viewLocked(j *job) JobView {
	return JobView{
		ID:            j.id,
		Spec:          j.spec,
		State:         j.state,
		Plan:          j.plan,
		Report:        j.report,
		Digest:        j.digest,
		Verified:      j.verified,
		Err:           j.err,
		Attempts:      j.attempts,
		RecoveredFrom: append([]int(nil), j.recoveredFrom...),
		DegradedPeers: append([]int(nil), j.degradedPeers...),
		RecoveryTime:  j.recoveryTime,
		EnqueuedAt:    j.enqueued,
		StartedAt:     j.started,
		FinishedAt:    j.finished,

		Trace: j.rec,
	}
}

// worker is one worker slot: it takes the queue head in arrival order,
// plans it (plans are shared through the planner's cache) and runs it,
// until Drain stops the scheduler.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.queue[0]
		s.queue[0] = nil // the vacated slot must not pin the job
		s.queue = s.queue[1:]
		s.inflight++
		j.state = StatePlanning
		j.spQueue.End()
		s.mu.Unlock()

		psp := j.root.Child("plan")
		plan, err := s.cfg.Planner.Plan(j.spec)
		if err != nil {
			psp.Str("error", err.Error()).End()
			s.finish(j, nil, "", false, err)
			continue
		}
		psp.Str("shape", plan.Shape).Int("ranks", int64(plan.Layout.P)).End()
		s.mu.Lock()
		j.plan = plan
		s.mu.Unlock()
		s.runJob(j, plan)
	}
}

type runResult struct {
	rep  *core.Report
	plan *Plan
	err  error
}

func (s *Scheduler) runJob(j *job, plan *Plan) {
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.spRun = j.root.Child("run").Str("runner", s.cfg.Runner.Name())
	spec := j.spec
	s.mu.Unlock()

	n := spec.N
	a, b, c := jobOperands(n, spec.Seed)

	// jobCtx scopes the run: it dies with the scheduler's life context, and
	// is canceled when the job reaches a terminal state in this function —
	// in particular on timeout, so the orphaned runWithRecovery goroutine
	// stops dialing meshes and retrying instead of recovering a job that
	// has already been reported terminal.
	jobCtx, jobCancel := context.WithCancel(s.lifeCtx)
	defer jobCancel()

	resCh := make(chan runResult, 1)
	go func() {
		rep, finalPlan, err := s.runWithRecovery(jobCtx, j, plan, a, b, c)
		resCh <- runResult{rep, finalPlan, err}
	}()

	var res runResult
	if s.cfg.JobTimeout > 0 {
		timer := time.NewTimer(s.cfg.JobTimeout)
		defer timer.Stop()
		select {
		case res = <-resCh:
		case <-timer.C:
			s.mu.Lock()
			s.counters.TimedOut++
			s.mu.Unlock()
			// finish marks the job terminal before the deferred jobCancel
			// releases the run goroutine, so its recovery loop observes the
			// terminal state and stands down without touching the job.
			s.finish(j, nil, "", false, fmt.Errorf("%w after %v", ErrJobTimeout, s.cfg.JobTimeout))
			// The run goroutine may still be using the operands: they are
			// left to the garbage collector.
			return
		}
	} else {
		res = <-resCh
	}
	// The run goroutine has returned. Its operands go back to the free list
	// once the job is finished — unless an attempt failed: the Runner
	// contract does not promise that a failed Run has joined every rank it
	// started, so one may still be reading A and B or writing C.
	s.mu.Lock()
	clean := res.err == nil && j.attempts == 0
	s.mu.Unlock()
	if clean {
		defer func() {
			slab.Put(a.Data)
			slab.Put(b.Data)
			slab.Put(c.Data)
		}()
	}
	if res.err != nil {
		s.finish(j, res.rep, "", false, res.err)
		return
	}
	rep := res.rep
	plan = res.plan
	rep.Shape = plan.Shape
	// Straggler analytics over the stage spans of the attempt that produced
	// the report: a recovered job's surviving ranks only.
	if j.rec != nil {
		rep.Imbalance = obs.AnalyzeStageSpans(lastAttemptSpans(j.rec.Spans()))
	}

	dsp := j.root.Child("digest")
	digest := matrix.Digest(c)
	dsp.Str("digest", digest).End()
	verified := false
	if spec.Verify {
		vsp := j.root.Child("verify")
		want := &matrix.Dense{Rows: n, Cols: n, Stride: n, Data: slab.Get(n * n)} // β = 0 overwrites it
		defer slab.Put(want.Data)
		if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
			vsp.Str("error", err.Error()).End()
			s.finish(j, rep, digest, false, err)
			return
		}
		if !matrix.Equal(c, want) {
			vsp.Str("error", "mismatch").End()
			s.finish(j, rep, digest, false,
				fmt.Errorf("sched: verification failed: max diff %g", matrix.MaxAbsDiff(c, want)))
			return
		}
		verified = true
		vsp.End()
	}
	s.finish(j, rep, digest, verified, nil)
}

// jobOperands draws a job's A, B and C from the slab free list and fills A
// and then B in place with matrix.FillSeeded. C keeps whatever it held: a
// Runner writes every element of it.
func jobOperands(n int, seed int64) (a, b, c *matrix.Dense) {
	var ms [3]*matrix.Dense
	for i := range ms {
		ms[i] = &matrix.Dense{Rows: n, Cols: n, Stride: n, Data: slab.Get(n * n)}
	}
	matrix.FillSeeded(seed, ms[0], ms[1])
	return ms[0], ms[1], ms[2]
}

// runWithRecovery executes the job and — when recovery is enabled and a
// run dies with a rank-attributed failure — drops the casualty from the
// world, replans over the survivors and resumes from the checkpoint, up to
// MaxRecoveryAttempts times. It returns the report together with the plan
// that finally ran (recovery changes the layout mid-job). ctx cancellation
// (drain or job timeout) stops the loop: once the job has been reported
// terminal elsewhere, no further attempt or accounting happens.
func (s *Scheduler) runWithRecovery(ctx context.Context, j *job, plan *Plan, a, b, c *matrix.Dense) (*core.Report, *Plan, error) {
	maxAttempts := s.cfg.MaxRecoveryAttempts
	if maxAttempts <= 0 || !runnerRecoverable(s.cfg.Runner) {
		// Recovery disabled, or the runner can never produce the
		// rank-attributed failures recovery needs (inproc): run plain, with
		// no checkpoint overhead that could never pay off.
		att := j.root.Child("attempt").Int("epoch", 0)
		rep, err := s.cfg.Runner.Run(j.id, plan, a, b, c, RunOpts{Ctx: ctx, Span: att})
		endAttempt(att, err)
		return rep, plan, err
	}
	// The job's Binding holds every cell its attempts finish. The cells go
	// back to the free list only when the first attempt succeeded: that Run
	// joined every rank it started, so nothing can still save or restore a
	// cell. After a failed attempt the Runner contract promises no such join
	// (the rule runJob applies to the operands), so a recovered or failed
	// job's cells are left to the garbage collector.
	binding := new(recover.Binding)

	// world maps current mesh ranks to original plan ranks (for casualty
	// attribution in job status); speeds are the survivors' relative
	// speeds, recovered from the realized areas — areas are proportional
	// to speed under every planning mode, so this works uniformly for
	// explicit speeds, FPM and platform-model plans.
	world := make([]int, plan.Layout.P)
	speeds := make([]float64, plan.Layout.P)
	for r := range world {
		world[r] = r
		speeds[r] = float64(plan.Areas[r])
	}
	var firstFailure time.Time
	cur := plan
	for epoch := 0; ; epoch++ {
		att := j.root.Child("attempt").Int("epoch", int64(epoch))
		rep, err := s.cfg.Runner.Run(j.id, cur, a, b, c,
			RunOpts{Checkpoint: binding, Epoch: epoch, Ctx: ctx, Span: att})
		endAttempt(att, err)
		if err == nil {
			if epoch == 0 {
				binding.Release()
			} else {
				s.mu.Lock()
				if !j.state.Terminal() {
					j.recoveryTime = time.Since(firstFailure)
					s.counters.RecoveredJobs++
					s.recordCellStatsLocked(binding)
				}
				s.mu.Unlock()
			}
			return rep, cur, nil
		}
		if epoch == 0 {
			firstFailure = time.Now()
		}
		// Recoverable only when the failure names a rank we can drop,
		// survivors remain, and the attempt budget is not exhausted.
		var pf *netmpi.PeerFailedError
		if epoch >= maxAttempts || !errors.As(err, &pf) ||
			pf.Rank < 0 || pf.Rank >= len(world) || len(world) <= 1 {
			s.noteRecoveryOutcome(j, epoch, binding, firstFailure)
			return rep, cur, err
		}
		victim := pf.Rank
		origVictim := world[victim]
		var dp *netmpi.DegradedPeerError
		gray := errors.As(err, &dp)
		rsp := j.root.Child("recover").Int("epoch", int64(epoch)).Int("victim", int64(origVictim))
		if gray {
			rsp.Str("cause", "gray-degraded")
		}
		newWorld, werr := recover.DropRank(world, victim)
		newSpeeds, serr := recover.DropRank(speeds, victim)
		var nextPlan *Plan
		rerr := errors.Join(werr, serr)
		if rerr == nil {
			nextPlan, rerr = s.cfg.Planner.replan(cur.Layout.N, newSpeeds)
		}
		if rerr != nil {
			rsp.Str("error", rerr.Error()).End()
			s.noteRecoveryOutcome(j, epoch+1, binding, firstFailure)
			return rep, cur, fmt.Errorf("sched: replanning over survivors of %v: %w", err, rerr)
		}
		rsp.Str("shape", nextPlan.Shape).Int("survivors", int64(nextPlan.Layout.P))
		world, speeds = newWorld, newSpeeds
		s.mu.Lock()
		if j.state.Terminal() {
			// The job was reported terminal while we ran (timeout, abandoned
			// drain): its status and the metrics are frozen — stand down
			// without booking a recovery that no one will see.
			s.mu.Unlock()
			rsp.End()
			return rep, cur, err
		}
		j.attempts = epoch + 1
		j.recoveredFrom = append(j.recoveredFrom, origVictim)
		if gray {
			j.degradedPeers = append(j.degradedPeers, origVictim)
			s.counters.GrayRecoveries++
		}
		j.plan = nextPlan
		s.counters.Recoveries++
		s.mu.Unlock()
		if !s.recoveryPause(ctx, epoch) {
			rsp.Str("error", "abandoned by drain").End()
			s.noteRecoveryOutcome(j, epoch+1, binding, firstFailure)
			return rep, cur, fmt.Errorf("sched: recovery abandoned by drain: %w", err)
		}
		rsp.End()
		cur = nextPlan
	}
}

// lastAttemptSpans filters spans, a job recorder's in start order, down to
// its last attempt span and every span under it. A parent starts before its
// children, so one pass in start order finds the whole subtree.
func lastAttemptSpans(spans []obs.Span) []obs.Span {
	last := -1
	for i, sp := range spans {
		if sp.Name == "attempt" {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	in := make([]bool, len(spans))
	out := spans[:0]
	for i := last; i < len(spans); i++ {
		if p := spans[i].Parent; i == last || p >= 0 && in[p] {
			in[i] = true
			out = append(out, spans[i])
		}
	}
	return out
}

// endAttempt closes an attempt span, tagging failures.
func endAttempt(att obs.SpanHandle, err error) {
	if err != nil {
		att.Str("error", err.Error())
	}
	att.End()
}

// recoveryPause sleeps the jittered exponential backoff before the next
// attempt, returning false when a drain, shutdown, or the job's own
// context (timeout) aborts the wait.
func (s *Scheduler) recoveryPause(ctx context.Context, epoch int) bool {
	d := s.cfg.RecoveryBackoff
	for i := 0; i < epoch; i++ {
		d *= 2
	}
	d = time.Duration(float64(d) * (0.75 + 0.5*rand.Float64())) // ±25% jitter
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.drainStart:
		return false
	case <-ctx.Done():
		return false
	}
}

// noteRecoveryOutcome books the terminal-failure side of the recovery
// accounting (attempts > 0 only — a plain first failure with no recovery
// attempted is not a recovery failure).
func (s *Scheduler) noteRecoveryOutcome(j *job, attempts int, binding *recover.Binding, firstFailure time.Time) {
	if attempts == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() {
		return // already reported terminal (timeout): status and metrics are frozen
	}
	j.recoveryTime = time.Since(firstFailure)
	s.counters.RecoveryFailures++
	s.recordCellStatsLocked(binding)
}

// recordCellStatsLocked folds a binding's checkpoint accounting into the
// scheduler counters. Callers hold s.mu.
func (s *Scheduler) recordCellStatsLocked(binding *recover.Binding) {
	restored, computed, redone := binding.Stats()
	s.counters.CellsRestored += uint64(restored)
	s.counters.CellsRecomputed += uint64(computed)
	s.counters.CellsRedone += uint64(redone)
}

// finish moves a job to its terminal state and fires the completion hook.
func (s *Scheduler) finish(j *job, rep *core.Report, digest string, verified bool, err error) {
	s.mu.Lock()
	j.report = rep
	j.digest = digest
	j.verified = verified
	j.err = err
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		s.counters.Failed++
		j.root.Str("error", err.Error())
	} else {
		j.state = StateDone
		s.counters.Done++
	}
	j.spRun.End()
	j.root.Str("state", j.state.String()).End()
	s.inflight--
	s.tenantLoad[j.spec.Tenant]--
	if s.tenantLoad[j.spec.Tenant] <= 0 {
		delete(s.tenantLoad, j.spec.Tenant)
	}
	view := s.viewLocked(j)
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.cfg.OnJobDone != nil {
		s.cfg.OnJobDone(view)
	}
}

// MatrixDigest is matrix.Digest, kept for callers that name it here.
func MatrixDigest(m *matrix.Dense) string { return matrix.Digest(m) }
