package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/grayfail"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/obs"
)

// Runner executes one planned multiplication. Implementations must write
// the full product into c and be safe for concurrent Run calls.
type Runner interface {
	// Name identifies the runtime ("inproc", "netmpi") for metrics.
	Name() string
	// Run computes c = a·b under the plan's layout. jobID is the
	// scheduler's job id, for logs and fault hooks. Run returns, failed or
	// not, only once every rank it started has returned (both runners end
	// in core's executor, which joins every rank), so no rank still reads
	// a or b or writes c afterwards.
	Run(jobID string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error)
}

// RecoverableRunner is optionally implemented by Runners whose failures
// can name a dead rank (a *netmpi.PeerFailedError) — the precondition for
// survivor-replan recovery. Runners that never produce rank-attributed
// failures (the inproc runtime: its "ranks" are goroutines in this
// process) run without checkpoint overhead even when recovery is enabled,
// since a checkpoint there could never be consumed.
type RecoverableRunner interface {
	// Recoverable reports whether Run can fail with a rank-attributed
	// error that the scheduler's recovery loop could act on.
	Recoverable() bool
}

// idleCloser is implemented by Runners that keep transport warm between
// jobs (the netmpi runner's meshes); Scheduler.Drain closes what they hold.
type idleCloser interface {
	CloseIdle()
}

// runnerRecoverable reports whether r advertises recoverable failures.
func runnerRecoverable(r Runner) bool {
	rr, ok := r.(RecoverableRunner)
	return ok && rr.Recoverable()
}

// RunOpts carries the per-attempt execution context a Runner needs beyond
// the plan: the recovery machinery's hooks (see internal/recover and the
// scheduler's recovery loop).
type RunOpts struct {
	// Checkpoint, when non-nil, records every completed C cell, so a later
	// attempt on the same c under a different layout never redoes finished
	// work.
	Checkpoint core.Checkpointer
	// Epoch is the recovery attempt number (0 = first attempt). The
	// netmpi runner tags its mesh generation with it so stale ranks can
	// never join a rebuilt mesh.
	Epoch int
	// Ctx, when non-nil, aborts mesh dialing once canceled — the drain
	// path.
	Ctx context.Context
	// Span is the attempt's observability span; runners hang engine-stage
	// children off it and annotate it with transport facts. The zero value
	// disables recording at no cost.
	Span obs.SpanHandle
}

// InprocRunner executes jobs on shared memory — every rank inside this
// process, rank 0 on the calling goroutine (core.Multiply) — the default
// for a single-node service.
type InprocRunner struct{}

// Name implements Runner.
func (r *InprocRunner) Name() string { return "inproc" }

// Run implements Runner via core.Multiply.
func (r *InprocRunner) Run(_ string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	return core.Multiply(a, b, c, core.Config{Layout: plan.Layout, Checkpoint: opts.Checkpoint, Span: opts.Span})
}

// NetmpiRunner executes each job over a loopback TCP mesh: one netmpi
// endpoint per rank, all run by core.MultiplyOn on core's in-process
// executor. This is the fault-tolerant netmpi runtime exercised under
// service load — a rank that dies mid-collective surfaces as a
// rank-attributed *netmpi.PeerFailedError failing the job cleanly while
// unrelated jobs proceed. Meshes outlive jobs: a first attempt leases a warm mesh off the
// runner's free list and puts it back after a clean run (mesh.go has the
// rules). The zero value is ready to use.
//
// The ranks share the a, b and c matrices: the engine reads only owned
// partitions and writes disjoint C cells per rank, so no synchronization
// beyond the final join is needed. They share the job's recorder and
// clock too: every rank records its ops on the Report's Timeline, and
// MultiplyOn adds every rank's stage spans under RunOpts.Span, as on the
// in-process runner.
type NetmpiRunner struct {
	// OpTimeout bounds every blocking frame operation (the failure
	// detector); default 10s.
	OpTimeout time.Duration
	// HeartbeatInterval keeps slow-but-alive ranks from tripping the
	// detector; default OpTimeout/4.
	HeartbeatInterval time.Duration
	// DialTimeout bounds mesh establishment; default 10s.
	DialTimeout time.Duration
	// WrapConn, when non-nil, wraps every rank's connections — the
	// fault-injection hook (see internal/faultinject). It receives the
	// job id and the recovery epoch so tests can target one job's mesh
	// and chaos hooks can confine kills to the first attempt. An attempt
	// it returns a wrapper for runs on a mesh dialled for it alone.
	WrapConn func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn

	// GrayFail, when non-nil, runs a gray-failure monitor alongside every
	// run: each heartbeat interval (one verdict opportunity per expected
	// beat) it samples every endpoint's per-peer RTT and goodput signals,
	// feeds them to a grayfail.Detector, and when a majority of a rank's
	// observers report its links degraded it condemns that rank via
	// Endpoint.FailPeer — converting up-but-sick into an immediate typed
	// *netmpi.PeerFailedError (cause *netmpi.DegradedPeerError) that steers
	// the scheduler's survivor-replan recovery long before any hard
	// OpTimeout fires.
	GrayFail *grayfail.Config

	// Warm meshes waiting for their next job, by rank count (mesh.go).
	meshMu sync.Mutex
	idle   map[int][]*mesh
	// onUse, when set (tests only), sees every run on a mesh start (after
	// the epoch fence, before any rank computes) and end (after the mesh
	// went back on the free list or was closed).
	onUse func(meshUse)

	// Transport-metric aggregation (see NetMetrics). Endpoint counters are
	// folded in as each run on a mesh ends; comm volumes only for
	// successful attempts, keyed by partition shape.
	netMu        sync.Mutex
	netPeers     map[NetPeerKey]NetPeerCounters
	grayDegraded uint64 // ranks condemned by the gray-failure monitor
	volumes      map[string]CommVolume
}

// Name implements Runner.
func (r *NetmpiRunner) Name() string { return "netmpi" }

// Recoverable implements RecoverableRunner: a dead netmpi rank surfaces as
// a rank-attributed *netmpi.PeerFailedError the recovery loop can act on.
func (r *NetmpiRunner) Recoverable() bool { return true }

func (r *NetmpiRunner) opTimeout() time.Duration {
	if r.OpTimeout > 0 {
		return r.OpTimeout
	}
	return 10 * time.Second
}

func (r *NetmpiRunner) heartbeat() time.Duration {
	if r.HeartbeatInterval > 0 {
		return r.HeartbeatInterval
	}
	return r.opTimeout() / 4
}

func (r *NetmpiRunner) dialTimeout() time.Duration {
	if r.DialTimeout > 0 {
		return r.DialTimeout
	}
	return 10 * time.Second
}

// meshUse is one start or end of a run on a mesh, as NetmpiRunner.onUse
// sees it.
type meshUse struct {
	job      string
	m        *mesh
	leased   bool // the mesh came off the free list
	done     bool // false at the start of the run, true at its end
	returned bool // at the end: the mesh went back on the free list
}

// errStaleLease is runOn's report that a leased mesh failed the epoch fence.
var errStaleLease = errors.New("sched: leased mesh failed the epoch fence")

// Run implements Runner: it runs every rank of the plan concurrently on a
// loopback mesh — a warm one off the free list when the attempt may lease
// one, else a freshly dialled one — and returns the engine's Report.
func (r *NetmpiRunner) Run(jobID string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	p := plan.Layout.P
	wraps := r.wrappers(jobID, opts.Epoch, p)
	// Only a first attempt on unwrapped connections leases a mesh or leaves
	// one behind: chaos and recovery attempts run on meshes of their own.
	poolable := opts.Epoch == 0 && wraps == nil
	m, leased, err := r.acquire(p, poolable, wraps, opts)
	if err != nil {
		return nil, err
	}
	rep, err := r.runOn(m, leased, poolable, jobID, plan, a, b, c, opts)
	if errors.Is(err, errStaleLease) {
		// The mesh went bad while it sat idle: that costs a redial, not the
		// attempt.
		if m, _, err = r.acquire(p, false, nil, opts); err != nil {
			return nil, err
		}
		rep, err = r.runOn(m, false, poolable, jobID, plan, a, b, c, opts)
	}
	return rep, err
}

// runOn runs one attempt on m, every rank recording its stage spans under
// opts.Span, then puts m back on the free list (poolable, the run succeeded
// and left every endpoint healthy, the job's context still live) or closes
// it.
func (r *NetmpiRunner) runOn(m *mesh, leased, poolable bool, jobID string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (rep *core.Report, err error) {
	// Cancelling the job's context closes the mesh under the run, so a drain
	// or a job timeout cuts dials and blocked frames short.
	stop := func() bool { return true }
	if opts.Ctx != nil {
		stop = context.AfterFunc(opts.Ctx, m.close)
	}
	stopGray := r.startGrayMonitor(m.eps, opts.Span)
	defer func() {
		stopGray()
		// One snapshot of every endpoint's counters serves both the
		// successful attempt's volume audit and the per-run fold.
		now := m.counters()
		if err == nil {
			r.auditVolume(plan, m.folded, now, opts.Span)
		}
		// stop reports false once the context's close has been set off.
		keep := stop() && poolable && err == nil && m.healthy()
		returned := r.release(m, now, keep, opts.Ctx)
		if r.onUse != nil {
			r.onUse(meshUse{job: jobID, m: m, leased: leased, done: true, returned: returned})
		}
	}()

	// Epoch fencing doubles as a pre-compute barrier: no rank of a
	// recovered job starts until the whole mesh agrees on the generation.
	if err := m.fence(leased); err != nil {
		if leased {
			opts.Span.Str("stale_lease", err.Error())
			return nil, errStaleLease
		}
		return nil, err
	}
	if r.onUse != nil {
		r.onUse(meshUse{job: jobID, m: m, leased: leased})
	}
	rep, err = core.MultiplyOn(m.procs, a, b, c, core.Config{Layout: plan.Layout, Checkpoint: opts.Checkpoint, Span: opts.Span})
	if err != nil {
		return nil, pickRootCause(err)
	}
	return rep, nil
}

// startGrayMonitor launches the per-mesh gray-failure monitor and returns
// its stop function (a no-op closure when the feature is off). Every tick
// it snapshots every endpoint's transport stats and feeds each directed
// link's RTT, one-way-delay and goodput signals to the detector. A rank is
// condemned when a majority of the observers that measure it hold a
// Degraded verdict whose inbound-delay evidence attributes the slowness to
// that rank's sending path (see grayfail.LinkHealth.InboundDelayed).
// Condemnation happens exactly once per mesh: FailPeer on every survivor
// converts the evidence into a rank-attributed failure on the spot, and
// the scheduler's recovery loop replans over the survivors — proactive
// replacement of an up-but-sick rank, bounded by a few heartbeat intervals
// instead of the hard OpTimeout.
func (r *NetmpiRunner) startGrayMonitor(eps []*netmpi.Endpoint, span obs.SpanHandle) func() {
	if r.GrayFail == nil {
		return func() {}
	}
	det := grayfail.New(*r.GrayFail)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(r.heartbeat())
		defer t.Stop()
		p := len(eps)
		condemned := make([]bool, p)
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			// Votes are direction-gated: a Degraded link accuses the
			// remote rank only when the inbound leg carries the delay
			// (InboundDelayed) — the victim's own endpoint also sees every
			// link it touches as slow, and without the gate it would vote
			// to condemn its innocent peers. The quorum is a majority of
			// the observers that actually measure the victim: collectives
			// with sparse communication patterns may give a rank a single
			// peer that ever reads its frames, and a majority of all P−1
			// observers would then be structurally unreachable.
			degraded := make([]int, p)
			measuring := make([]int, p)
			for _, ep := range eps {
				if ep == nil {
					continue
				}
				st := ep.Stats()
				for _, ps := range st.Peers {
					if ps.ClockSamples == 0 || ps.Peer >= p {
						continue
					}
					measuring[ps.Peer]++
					avgDelay := 0.0
					if ps.Heartbeats > 0 {
						avgDelay = ps.HeartbeatDelaySeconds / float64(ps.Heartbeats)
					}
					key := fmt.Sprintf("%d>%d", st.Rank, ps.Peer)
					verdict := det.Observe(key, grayfail.Sample{
						RTTEWMA:             ps.RTTEWMASeconds,
						RTTMin:              ps.RTTMinSeconds,
						GoodputBytesPerSec:  ps.GoodputBytesPerSec,
						InboundDelaySeconds: avgDelay,
						Samples:             ps.ClockSamples,
					})
					if verdict == grayfail.Degraded && det.Health(key).InboundDelayed {
						degraded[ps.Peer]++
					}
				}
			}
			for v, n := range degraded {
				if n < measuring[v]/2+1 || condemned[v] {
					continue
				}
				condemned[v] = true
				cause := &netmpi.DegradedPeerError{
					Rank:   v,
					Reason: fmt.Sprintf("%d/%d measuring observers report inbound-degraded links", n, measuring[v]),
				}
				for rank, ep := range eps {
					if ep != nil && rank != v {
						ep.FailPeer(v, cause)
					}
				}
				r.netMu.Lock()
				r.grayDegraded++
				r.netMu.Unlock()
				span.Int("gray_degraded_rank", int64(v))
			}
		}
	}()
	return func() { close(stop); <-done }
}

// foldStats adds what every endpoint of m counted since the mesh's previous
// run ended — now, the counters as the run ended — to the runner-lifetime
// totals, and moves the mesh's mark up to now. Called exactly once per run,
// as the run releases the mesh, so the totals are the sum over runs.
func (r *NetmpiRunner) foldStats(m *mesh, now []netmpi.Stats) {
	r.netMu.Lock()
	defer r.netMu.Unlock()
	if r.netPeers == nil {
		r.netPeers = make(map[NetPeerKey]NetPeerCounters)
	}
	for i := range now {
		st, was := now[i], m.folded[i]
		for j, ps := range st.Peers {
			var w netmpi.PeerStats
			if j < len(was.Peers) {
				w = was.Peers[j]
			}
			k := NetPeerKey{Rank: st.Rank, Peer: ps.Peer}
			c := r.netPeers[k]
			c.BytesSent += uint64(ps.BytesSent - w.BytesSent)
			c.BytesRecv += uint64(ps.BytesRecv - w.BytesRecv)
			c.FramesSent += uint64(ps.FramesSent - w.FramesSent)
			c.FramesRecv += uint64(ps.FramesRecv - w.FramesRecv)
			c.SendSeconds += ps.SendSeconds - w.SendSeconds
			c.RecvSeconds += ps.RecvSeconds - w.RecvSeconds
			c.Heartbeats += uint64(ps.Heartbeats - w.Heartbeats)
			c.HeartbeatDelaySeconds += ps.HeartbeatDelaySeconds - w.HeartbeatDelaySeconds
			c.CorruptFrames += uint64(ps.CorruptFrames - w.CorruptFrames)
			r.netPeers[k] = c
		}
	}
	m.folded = now
}

// auditVolume compares the partition model's predicted broadcast volume
// against the payload bytes the mesh delivered during this run (counters
// now against the mark was), records the per-shape audit, and stamps the
// attempt span. Only successful attempts are audited: a failed attempt's
// observed bytes reflect a truncated run.
func (r *NetmpiRunner) auditVolume(plan *Plan, was, now []netmpi.Stats, span obs.SpanHandle) {
	var predicted int64
	for _, v := range plan.Layout.CommVolumes() {
		predicted += int64(v) * 8
	}
	var observed int64
	for i := range now {
		observed += now[i].TotalRecvBytes() - was[i].TotalRecvBytes()
	}
	ratio := 0.0
	if predicted > 0 {
		ratio = float64(observed) / float64(predicted)
	}
	span.Int("predicted_bytes", predicted).Int("observed_bytes", observed).Float("volume_ratio", ratio)

	r.netMu.Lock()
	defer r.netMu.Unlock()
	if r.volumes == nil {
		r.volumes = make(map[string]CommVolume)
	}
	v := r.volumes[plan.Shape]
	v.PredictedBytes += uint64(predicted)
	v.ObservedBytes += uint64(observed)
	v.Runs++
	v.LastRatio = ratio
	r.volumes[plan.Shape] = v
}

// NetMetrics implements NetReporter with deep-copied snapshots.
func (r *NetmpiRunner) NetMetrics() (NetCounters, map[string]CommVolume) {
	r.netMu.Lock()
	defer r.netMu.Unlock()
	nc := NetCounters{GrayDegraded: r.grayDegraded, PerPeer: make(map[NetPeerKey]NetPeerCounters, len(r.netPeers))}
	for k, v := range r.netPeers {
		nc.PerPeer[k] = v
	}
	vols := make(map[string]CommVolume, len(r.volumes))
	for k, v := range r.volumes {
		vols[k] = v
	}
	return nc, vols
}

// pickRootCause selects the most informative failure from the per-rank
// errors joined in err, in rank order (core.MultiplyOn's, or the fence's).
// A single worker death cascades: the rank that directly observed the
// victim's socket die reports a *netmpi.PeerFailedError* caused by EOF/reset
// (naming the true victim), other survivors then time out on the poisoned
// detector (naming the wrong rank), and the victim itself sees
// its own locally-closed sockets. Remote-death evidence therefore
// outranks deadline expiry, which outranks local-close artifacts.
//
// The choice is deterministic even under simultaneous failures: ties on
// evidence strength break toward the lowest accused rank, then the lowest
// observing rank — the recovery loop drops exactly one rank per attempt,
// so two runs of the same casualty pattern must accuse the same victim.
func pickRootCause(err error) error {
	errs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		errs = j.Unwrap()
	}
	best, bestPrio, bestVictim := error(nil), -1, 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		p, v := failurePriority(err), failureVictim(err)
		if p > bestPrio || (p == bestPrio && v < bestVictim) {
			best, bestPrio, bestVictim = err, p, v
		}
	}
	return best
}

// failureVictim returns the rank an error accuses, or MaxInt when the
// error carries no rank attribution.
func failureVictim(err error) int {
	var pf *netmpi.PeerFailedError
	if errors.As(err, &pf) {
		return pf.Rank
	}
	return math.MaxInt
}

func failurePriority(err error) int {
	var pf *netmpi.PeerFailedError
	if !errors.As(err, &pf) {
		return 0
	}
	var dp *netmpi.DegradedPeerError
	var ne net.Error
	switch {
	case errors.As(err, &dp):
		return 5 // a deliberate gray-failure verdict: the strongest attribution
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ECONNREFUSED):
		return 4 // the peer's socket died under us: direct evidence
	case errors.As(err, &ne) && ne.Timeout():
		return 3 // silence past the deadline: could be a cascade
	case errors.Is(err, net.ErrClosed):
		return 1 // our own socket closed locally — we are the dying rank
	default:
		return 2
	}
}
