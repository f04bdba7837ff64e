package sched

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/netmpi"
)

func newTestScheduler(t *testing.T, mutate func(*Config)) *Scheduler {
	t.Helper()
	cfg := Config{
		Workers:  4,
		QueueCap: 256,
		Planner:  newTestPlanner(),
		Runner:   &InprocRunner{},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// waitTerminal polls until the job reaches a terminal state, failing the
// test if it never does — queued work must never hang.
func waitTerminal(t *testing.T, s *Scheduler, id string, budget time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		v, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.Get(id)
	t.Fatalf("job %s still %v after %v", id, v.State, budget)
	return JobView{}
}

func TestSchedulerRunsJobToCompletion(t *testing.T) {
	s := newTestScheduler(t, nil)
	v, err := s.Submit(JobSpec{N: 32, Shape: "square-corner", Seed: 7, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 30*time.Second)
	if got.State != StateDone {
		t.Fatalf("job failed: %v", got.Err)
	}
	if !got.Verified || got.Digest == "" {
		t.Fatalf("got Verified=%v Digest=%q", got.Verified, got.Digest)
	}
	if got.Report == nil || got.Report.Shape != "square-corner" || got.Report.N != 32 {
		t.Fatalf("report = %+v", got.Report)
	}
	if got.Plan == nil || got.Plan.Shape != "square-corner" {
		t.Fatalf("plan = %+v", got.Plan)
	}
}

// The acceptance bar: >= 32 concurrent requests through the pool with
// bounded queueing — accepted jobs all complete, overflow is rejected with
// a typed error, nothing hangs.
func TestSchedulerConcurrentLoadBoundedQueue(t *testing.T) {
	const requests = 64
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 4
		c.QueueCap = 16
	})
	var mu sync.Mutex
	var accepted []string
	rejected := 0
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(JobSpec{N: 48, Shape: "block-rectangle", Seed: int64(i)})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var qf *QueueFullError
				if !errors.As(err, &qf) {
					t.Errorf("unexpected rejection type %T: %v", err, err)
				}
				rejected++
				return
			}
			accepted = append(accepted, v.ID)
		}(i)
	}
	wg.Wait()
	if len(accepted) == 0 {
		t.Fatal("no job accepted")
	}
	for _, id := range accepted {
		v := waitTerminal(t, s, id, 60*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %s failed: %v", id, v.Err)
		}
	}
	m := s.Metrics()
	if got := int(m.Counters.Done); got != len(accepted) {
		t.Fatalf("done = %d, accepted = %d", got, len(accepted))
	}
	if rejected != int(m.Counters.RejectedQueueFull) {
		t.Fatalf("rejected = %d, counter = %d", rejected, m.Counters.RejectedQueueFull)
	}
	t.Logf("accepted %d, rejected %d", len(accepted), rejected)
}

func TestSchedulerPerTenantCap(t *testing.T) {
	block := make(chan struct{})
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
		c.QueueCap = 64
		c.TenantCap = 2
		c.Runner = &blockingRunner{release: block}
	})
	defer close(block)
	// Two jobs saturate tenant "a"; the third is rejected with the tenant
	// named, while tenant "b" still gets in.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{N: 24, Tenant: "a", Shape: "1d-rectangle"}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(JobSpec{N: 24, Tenant: "a", Shape: "1d-rectangle"})
	var qf *QueueFullError
	if !errors.As(err, &qf) || qf.Tenant != "a" {
		t.Fatalf("want tenant-attributed QueueFullError, got %v", err)
	}
	if _, err := s.Submit(JobSpec{N: 24, Tenant: "b", Shape: "1d-rectangle"}); err != nil {
		t.Fatalf("tenant b must not be affected: %v", err)
	}
}

// blockingRunner parks every run until release is closed.
type blockingRunner struct {
	release chan struct{}
	inner   InprocRunner
}

func (r *blockingRunner) Name() string { return "blocking" }
func (r *blockingRunner) Run(id string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	<-r.release
	return r.inner.Run(id, plan, a, b, c, opts)
}

// gatedRunner announces every Run on started, then blocks it until the
// test releases it (or closes release).
type gatedRunner struct {
	started chan struct{}
	release chan struct{}
	inner   InprocRunner
}

func (r *gatedRunner) Name() string { return "gated" }
func (r *gatedRunner) Run(id string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	r.started <- struct{}{}
	<-r.release
	return r.inner.Run(id, plan, a, b, c, opts)
}

// TestSchedulerIsWorkConserving submits a burst of jobs sharing one plan
// key to two worker slots: while jobs wait, every slot must be running one,
// so each release of a run is followed by the next job's start.
func TestSchedulerIsWorkConserving(t *testing.T) {
	const workers, jobs = 2, 10
	g := &gatedRunner{started: make(chan struct{}, jobs), release: make(chan struct{})}
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = workers
		c.Runner = g
	})
	// Registered after newTestScheduler's drain, so it runs first: a failed
	// test opens the gate instead of hanging the drain.
	t.Cleanup(func() { close(g.release) })
	var ids []string
	for i := 0; i < jobs; i++ {
		v, err := s.Submit(JobSpec{N: 32, Shape: "square-corner", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	running := 0
	for done := 0; done < jobs; done++ {
		for running < min(workers, jobs-done) {
			select {
			case <-g.started:
				running++
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d jobs done, %d running: a worker slot idles while jobs wait", done, jobs, running)
			}
		}
		g.release <- struct{}{}
		running--
	}
	for _, id := range ids {
		if v := waitTerminal(t, s, id, 30*time.Second); v.State != StateDone {
			t.Fatalf("job %s failed: %v", id, v.Err)
		}
	}
}

func TestSchedulerIdenticalJobsShareDigest(t *testing.T) {
	s := newTestScheduler(t, nil)
	spec := JobSpec{N: 40, Shape: "square-corner", Seed: 11}
	v1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	g1 := waitTerminal(t, s, v1.ID, 30*time.Second)
	g2 := waitTerminal(t, s, v2.ID, 30*time.Second)
	if g1.State != StateDone || g2.State != StateDone {
		t.Fatalf("jobs failed: %v / %v", g1.Err, g2.Err)
	}
	if g1.Digest == "" || g1.Digest != g2.Digest {
		t.Fatalf("digests differ: %q vs %q", g1.Digest, g2.Digest)
	}
}

func TestSchedulerDrain(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) { c.Workers = 2 })
	var ids []string
	for i := 0; i < 8; i++ {
		v, err := s.Submit(JobSpec{N: 32, Shape: "1d-rectangle", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		v, _ := s.Get(id)
		if !v.State.Terminal() {
			t.Fatalf("job %s not terminal after drain: %v", id, v.State)
		}
	}
	if _, err := s.Submit(JobSpec{N: 32}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
}

func TestSchedulerJobTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestScheduler(t, func(c *Config) {
		c.JobTimeout = 50 * time.Millisecond
		c.Runner = &blockingRunner{release: release}
	})
	v, err := s.Submit(JobSpec{N: 24, Shape: "1d-rectangle"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 30*time.Second)
	if got.State != StateFailed || !errors.Is(got.Err, ErrJobTimeout) {
		t.Fatalf("got state %v err %v, want timeout failure", got.State, got.Err)
	}
}

func TestSchedulerPlanRejectionFailsJob(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) {
		c.Planner = &Planner{Platform: testPlatform(1 << 10)} // 1 KiB devices
	})
	v, err := s.Submit(JobSpec{N: 32, Shape: "square-corner"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 30*time.Second)
	var me *MemoryError
	if got.State != StateFailed || !errors.As(got.Err, &me) {
		t.Fatalf("got state %v err %v, want memory admission failure", got.State, got.Err)
	}
}

// TestSchedulerNetmpiRunner runs real jobs over the loopback TCP mesh and
// checks the result matches the in-process digest.
func TestSchedulerNetmpiRunner(t *testing.T) {
	spec := JobSpec{N: 32, Shape: "square-corner", Seed: 3, Verify: true}

	inproc := newTestScheduler(t, nil)
	vi, err := inproc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	gi := waitTerminal(t, inproc, vi.ID, 30*time.Second)
	if gi.State != StateDone {
		t.Fatalf("inproc job failed: %v", gi.Err)
	}

	netm := newTestScheduler(t, func(c *Config) {
		c.Runner = &NetmpiRunner{OpTimeout: 10 * time.Second}
	})
	vn, err := netm.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	gn := waitTerminal(t, netm, vn.ID, 60*time.Second)
	if gn.State != StateDone {
		t.Fatalf("netmpi job failed: %v", gn.Err)
	}
	if !gn.Verified {
		t.Fatal("netmpi result failed verification")
	}
	// Same engine, same layout, same inputs: bitwise-identical C.
	if gn.Digest != gi.Digest {
		t.Fatalf("netmpi digest %q != inproc digest %q", gn.Digest, gi.Digest)
	}
	if gn.Report == nil || len(gn.Report.PerRank) != 3 {
		t.Fatalf("netmpi report = %+v", gn.Report)
	}
}

// TestSchedulerNetmpiWorkerDeath is the acceptance scenario: a
// faultinject-killed netmpi worker fails its job with a rank-attributed
// error while other in-flight jobs complete.
func TestSchedulerNetmpiWorkerDeath(t *testing.T) {
	const victimRank = 2
	// The injector cuts every connection owned by the victim rank after
	// its first data frame — but only for the first submitted job
	// (deterministically "j-000001"; IDs are assigned in submit order).
	inj := faultinject.New(faultinject.Plan{
		Rules:     []faultinject.Rule{{Rank: victimRank, Peer: -1, AfterFrames: 1, Action: faultinject.Close}},
		SkipCount: netmpi.IsHeartbeatFrame,
	})
	const faultedJob = "j-000001"
	runner := &NetmpiRunner{
		OpTimeout: 1500 * time.Millisecond,
		WrapConn: func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
			if jobID != faultedJob {
				return nil
			}
			return inj.WrapConn(rank)
		},
	}
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 3
		c.Runner = runner
	})

	vFault, err := s.Submit(JobSpec{N: 32, Shape: "square-corner", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vFault.ID != faultedJob {
		t.Fatalf("first job id = %s, want %s", vFault.ID, faultedJob)
	}
	var healthy []string
	for i := 0; i < 4; i++ {
		v, err := s.Submit(JobSpec{N: 32, Shape: "square-corner", Seed: int64(10 + i), Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		healthy = append(healthy, v.ID)
	}

	got := waitTerminal(t, s, vFault.ID, 60*time.Second)
	if got.State != StateFailed {
		t.Fatalf("faulted job state = %v (err %v), want failed", got.State, got.Err)
	}
	var pf *netmpi.PeerFailedError
	if !errors.As(got.Err, &pf) {
		t.Fatalf("want *netmpi.PeerFailedError, got %T: %v", got.Err, got.Err)
	}
	if pf.Rank != victimRank {
		t.Fatalf("failure attributed to rank %d, want %d", pf.Rank, victimRank)
	}
	for _, id := range healthy {
		v := waitTerminal(t, s, id, 60*time.Second)
		if v.State != StateDone || !v.Verified {
			t.Fatalf("healthy job %s: state %v verified %v err %v", id, v.State, v.Verified, v.Err)
		}
	}
}
