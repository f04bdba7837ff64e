package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/obs"
	"repro/internal/slab"
)

// The tests in this file pin mesh leasing (mesh.go) and recycled job
// operands: a warm mesh serves one job at a time, is discarded the moment
// anything about it fails, accounts each job separately, and a job's A, B
// and C go back to the free list only when no goroutine can still use them.

// freshMeshRunner dials a mesh of its own for every attempt: an identity
// wrapper is still a wrapper, so nothing is ever leased.
func freshMeshRunner() *NetmpiRunner {
	return &NetmpiRunner{
		OpTimeout: 10 * time.Second,
		WrapConn: func(string, int, int) func(int, net.Conn) net.Conn {
			return func(_ int, c net.Conn) net.Conn { return c }
		},
	}
}

// runSpecs submits every spec to s and returns the terminal views in order.
func runSpecs(t *testing.T, s *Scheduler, specs []JobSpec) []JobView {
	t.Helper()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	views := make([]JobView, len(ids))
	for i, id := range ids {
		views[i] = waitTerminal(t, s, id, 120*time.Second)
		if views[i].State != StateDone || views[i].Digest == "" {
			t.Fatalf("job %s (%+v): state %v err %v", id, specs[i], views[i].State, views[i].Err)
		}
	}
	return views
}

// TestLeaseServesOneJobAtATime: four workers run 200 jobs of mixed shapes and
// sizes on leased meshes. No mesh ever serves a second job while one is
// running on it, the meshes are reused (at most one per worker is ever
// dialled), and every digest equals the one a fresh mesh gives.
func TestLeaseServesOneJobAtATime(t *testing.T) {
	const workers = 4
	var distinct []JobSpec
	for i, shape := range []string{"square-corner", "square-rectangle", "block-rectangle", "1d-rectangle", "column-based"} {
		for _, n := range []int{32, 40, 48, 64} {
			distinct = append(distinct, JobSpec{N: n, Shape: shape, Seed: int64(100*i + n)})
		}
	}
	ref := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.Runner = freshMeshRunner()
	})
	want := runSpecs(t, ref, distinct)

	var mu sync.Mutex
	holder := map[*mesh]string{}
	meshes := map[*mesh]bool{}
	leases := 0
	var violations []string
	r := &NetmpiRunner{OpTimeout: 10 * time.Second}
	r.onUse = func(u meshUse) {
		mu.Lock()
		defer mu.Unlock()
		if u.done {
			if holder[u.m] != u.job {
				violations = append(violations, fmt.Sprintf("%s ended on a mesh held by %q", u.job, holder[u.m]))
			}
			delete(holder, u.m)
			return
		}
		if h, busy := holder[u.m]; busy {
			violations = append(violations, fmt.Sprintf("%s started on a mesh %s is running on", u.job, h))
		}
		holder[u.m] = u.job
		meshes[u.m] = true
		if u.leased {
			leases++
		}
	}
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = workers
		c.SmallN = -1
		c.Runner = r
	})
	specs := make([]JobSpec, 200)
	for i := range specs {
		specs[i] = distinct[(7*i)%len(distinct)]
	}
	for i, v := range runSpecs(t, s, specs) {
		if w := want[(7*i)%len(distinct)].Digest; v.Digest != w {
			t.Errorf("job %d %+v: digest %s on a leased mesh, %s on a fresh one", i, specs[i], v.Digest, w)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, v := range violations {
		t.Error(v)
	}
	if len(meshes) > workers || leases < len(specs)-workers {
		t.Fatalf("%d meshes dialled and %d of %d runs leased: meshes are not being reused", len(meshes), leases, len(specs))
	}
}

// TestLeaseFailPeerMidJobRecovers: a rank of a leased mesh is condemned
// (FailPeer, as the gray-failure monitor does) after the epoch fence, as the
// ranks start computing. The mesh is closed, not returned, and the job
// recovers over the survivors to the fault-free digest.
func TestLeaseFailPeerMidJobRecovers(t *testing.T) {
	const victim = 1
	spec := JobSpec{N: 64, Shape: "square-corner", Seed: 9}
	ref := newTestScheduler(t, nil)
	want := runSpecs(t, ref, []JobSpec{spec})[0].Digest

	var mu sync.Mutex
	var failed *mesh
	returned := true
	r := &NetmpiRunner{OpTimeout: 10 * time.Second}
	r.onUse = func(u meshUse) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case !u.done && u.leased && u.job == "j-000002":
			cause := &netmpi.DegradedPeerError{Rank: victim, Reason: "condemned by the test"}
			for rank, ep := range u.m.eps {
				if rank != victim {
					ep.FailPeer(victim, cause)
				}
			}
			failed = u.m
		case u.done && u.m == failed:
			returned = u.returned
		}
	}
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = 10 * time.Millisecond
		c.Runner = r
	})
	views := runSpecs(t, s, []JobSpec{spec, spec})
	mu.Lock()
	defer mu.Unlock()
	if failed == nil {
		t.Fatal("the second job did not run on the first job's mesh")
	}
	got := views[1]
	if got.Digest != want || got.Attempts != 1 || len(got.RecoveredFrom) != 1 || got.RecoveredFrom[0] != victim {
		t.Fatalf("digest %s (fault-free %s), attempts %d, recovered from %v", got.Digest, want, got.Attempts, got.RecoveredFrom)
	}
	if returned {
		t.Fatal("the mesh with a condemned rank went back on the free list")
	}
	for rank, ep := range failed.eps {
		if ep.Healthy() {
			t.Errorf("rank %d of the failed mesh is still open", rank)
		}
	}
	r.meshMu.Lock()
	defer r.meshMu.Unlock()
	for p, free := range r.idle {
		if len(free) != 0 {
			t.Errorf("%d meshes of %d ranks left idle: neither the failed mesh nor a recovery mesh may be kept", len(free), p)
		}
	}
}

// TestLeaseStaleIdleMeshRedials: a mesh that went bad while it sat on the
// free list fails the next job's epoch fence; the attempt closes it and
// dials a fresh mesh at once, and the job succeeds on its first attempt.
func TestLeaseStaleIdleMeshRedials(t *testing.T) {
	spec := JobSpec{N: 48, Shape: "square-corner", Seed: 3}
	var mu sync.Mutex
	var starts []meshUse
	r := &NetmpiRunner{OpTimeout: 10 * time.Second}
	r.onUse = func(u meshUse) {
		if !u.done {
			mu.Lock()
			starts = append(starts, u)
			mu.Unlock()
		}
	}
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
		c.SmallN = -1
		c.Observe = true
		c.Runner = r
	})
	first := runSpecs(t, s, []JobSpec{spec})[0]
	r.meshMu.Lock()
	idle := append([]*mesh(nil), r.idle[3]...)
	r.meshMu.Unlock()
	if len(idle) != 1 {
		t.Fatalf("%d idle meshes after one job, want 1", len(idle))
	}
	stale := idle[0]
	stale.eps[0].FailPeer(2, errors.New("link lost while idle"))

	begin := time.Now()
	second := runSpecs(t, s, []JobSpec{spec})[0]
	if elapsed := time.Since(begin); elapsed > r.opTimeout()/2 {
		t.Fatalf("the stale lease cost %v: the fence waited for the failure detector", elapsed)
	}
	if second.Digest != first.Digest || second.Attempts != 0 {
		t.Fatalf("digest %s (first run %s), attempts %d", second.Digest, first.Digest, second.Attempts)
	}
	mu.Lock()
	last := starts[len(starts)-1]
	mu.Unlock()
	if last.m == stale || last.leased {
		t.Fatal("the job ran on the stale mesh instead of a freshly dialled one")
	}
	for rank, ep := range stale.eps {
		if ep.Healthy() {
			t.Errorf("rank %d of the stale mesh is still open", rank)
		}
	}
	idx := spanIndex(second.Trace.Spans())
	if len(idx["mesh-dial"]) != 2 {
		t.Errorf("%d mesh-dial spans, want the lease and the redial", len(idx["mesh-dial"]))
	}
	if att := idx["attempt"]; len(att) != 1 || !hasAttr(att[0], "stale_lease") {
		t.Error("attempt span does not record the stale lease")
	}
}

func hasAttr(sp obs.Span, key string) bool {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

// TestLeaseAccountingPerJob: fifty jobs run one after another on one leased
// mesh. Each audits the comm volume of its own run (ratio 1.000, the same
// observed bytes as the first run on the fresh mesh), the runner's transport
// totals — what summagen_net_* exports — equal the sum over the jobs, and a
// job's reported comm and compute seconds fit inside its own run instead of
// growing with every earlier job on the mesh.
func TestLeaseAccountingPerJob(t *testing.T) {
	const jobs = 50
	var mu sync.Mutex
	meshes := map[*mesh]bool{}
	r := &NetmpiRunner{OpTimeout: 10 * time.Second}
	r.onUse = func(u meshUse) {
		mu.Lock()
		meshes[u.m] = true
		mu.Unlock()
	}
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
		c.SmallN = -1
		c.Observe = true
		c.Runner = r
	})
	specs := make([]JobSpec, jobs)
	for i := range specs {
		specs[i] = JobSpec{N: 128, Shape: "square-corner", Seed: int64(i)}
	}
	var sumObserved, firstObserved int64
	for i, v := range runSpecs(t, s, specs) {
		att := spanIndex(v.Trace.Spans())["attempt"]
		if len(att) != 1 {
			t.Fatalf("job %d: %d attempt spans", i, len(att))
		}
		attrs := map[string]any{}
		for _, a := range att[0].Attrs {
			attrs[a.Key] = a.Value()
		}
		observed, _ := attrs["observed_bytes"].(int64)
		ratio, _ := attrs["volume_ratio"].(float64)
		if got := fmt.Sprintf("%.3f", ratio); got != "1.000" {
			t.Errorf("job %d: comm-volume ratio %s, want 1.000", i, got)
		}
		if i == 0 {
			firstObserved = observed
		} else if observed != firstObserved {
			t.Errorf("job %d: observed %d bytes, the first run %d", i, observed, firstObserved)
		}
		sumObserved += observed
		if rep := v.Report; rep.CommTime > rep.ExecutionTime || rep.ComputeTime > rep.ExecutionTime {
			t.Errorf("job %d: comm %.6fs / compute %.6fs reported for a %.6fs run", i, rep.CommTime, rep.ComputeTime, rep.ExecutionTime)
		}
	}
	if len(meshes) != 1 {
		t.Fatalf("%d meshes served %d sequential jobs, want 1", len(meshes), jobs)
	}
	net, vols := r.NetMetrics()
	var recv uint64
	for _, c := range net.PerPeer {
		recv += c.BytesRecv
	}
	if recv != uint64(sumObserved) {
		t.Errorf("transport totals count %d bytes received, the jobs %d", recv, sumObserved)
	}
	if v := vols["square-corner"]; v.Runs != jobs || v.ObservedBytes != uint64(sumObserved) {
		t.Errorf("volume audit %+v, want %d runs and %d observed bytes", v, jobs, sumObserved)
	}
}

// operandWatch runs a NetmpiRunner and keeps, while each Run is in flight,
// the job's operand buffers as live.
type operandWatch struct {
	*NetmpiRunner
	mu   sync.Mutex
	live map[*float64]string
}

func (w *operandWatch) Run(jobID string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	w.mu.Lock()
	for _, m := range []*matrix.Dense{a, b, c} {
		w.live[&m.Data[0]] = jobID
	}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		for _, m := range []*matrix.Dense{a, b, c} {
			delete(w.live, &m.Data[0])
		}
		w.mu.Unlock()
	}()
	return w.NetmpiRunner.Run(jobID, plan, a, b, c, opts)
}

func (w *operandWatch) liveCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.live)
}

// TestRecycleOperandsNotWhileRunGoroutineLives: a job times out while its
// run goroutine is still inside the runner. Its operands must not go back to
// the free list — later jobs of the same size run meanwhile and must never
// be handed one of them — and once it returns, Drain leaves no goroutine
// behind: every mesh, leased or idle, is closed.
func TestRecycleOperandsNotWhileRunGoroutineLives(t *testing.T) {
	baseline := runtime.NumGoroutine()
	hold, held := make(chan struct{}), make(chan struct{})
	inner := &NetmpiRunner{OpTimeout: 10 * time.Second}
	inner.onUse = func(u meshUse) {
		if !u.done && u.job == "j-000002" {
			close(held)
			<-hold
		}
	}
	w := &operandWatch{NetmpiRunner: inner, live: map[*float64]string{}}
	var recycled int
	var handedLive []string
	defer slab.SetReuseHook(func(s []float64) {
		w.mu.Lock()
		defer w.mu.Unlock()
		recycled++
		if job, ok := w.live[&s[:1][0]]; ok {
			handedLive = append(handedLive, job)
		}
	})()
	s, err := New(Config{
		Workers:    2,
		QueueCap:   16,
		SmallN:     -1,
		JobTimeout: 300 * time.Millisecond,
		Planner:    newTestPlanner(),
		Runner:     w,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{N: 64, Shape: "square-corner", Seed: 4}
	runSpecs(t, s, []JobSpec{spec})
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	if got := waitTerminal(t, s, v.ID, 30*time.Second); !errors.Is(got.Err, ErrJobTimeout) {
		t.Fatalf("held job: state %v err %v, want a timeout", got.State, got.Err)
	}
	runSpecs(t, s, []JobSpec{spec, spec, spec, spec})
	close(hold)
	for deadline := time.Now().Add(30 * time.Second); w.liveCount() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the timed-out job's run goroutine never returned")
		}
	}
	w.mu.Lock()
	if len(handedLive) > 0 || recycled == 0 {
		t.Errorf("%d buffers recycled; %d of them still in use by %v", recycled, len(handedLive), handedLive)
	}
	w.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked past Drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// captureRunner records every Run's operand buffers.
type captureRunner struct {
	Runner
	mu       sync.Mutex
	operands [][3]*float64
}

func (c *captureRunner) Run(jobID string, plan *Plan, a, b, cm *matrix.Dense, opts RunOpts) (*core.Report, error) {
	c.mu.Lock()
	c.operands = append(c.operands, [3]*float64{&a.Data[0], &b.Data[0], &cm.Data[0]})
	c.mu.Unlock()
	return c.Runner.Run(jobID, plan, a, b, cm, opts)
}

func (c *captureRunner) CloseIdle() {
	if ic, ok := c.Runner.(idleCloser); ok {
		ic.CloseIdle()
	}
}

// TestRecyclePoisonedOperandsKeepDigests: with every recycled buffer
// NaN-filled before it is handed out, the jobs' digests are unchanged on both
// runners — and the A, B and C of every job after the first were such
// recycled buffers.
func TestRecyclePoisonedOperandsKeepDigests(t *testing.T) {
	shapes := []string{"square-corner", "square-rectangle", "block-rectangle", "1d-rectangle", "column-based"}
	specs := make([]JobSpec, len(shapes))
	for i, shape := range shapes {
		specs[i] = JobSpec{N: 48, Shape: shape, Seed: 7}
	}
	ref := newTestScheduler(t, func(c *Config) { c.SmallN = -1 })
	want := runSpecs(t, ref, specs)

	var mu sync.Mutex
	poisoned := map[*float64]bool{}
	defer slab.SetReuseHook(func(s []float64) {
		mu.Lock()
		poisoned[&s[:1][0]] = true
		mu.Unlock()
		for i := range s {
			s[i] = math.NaN()
		}
	})()
	for _, tc := range []struct {
		name   string
		runner Runner
	}{
		{"inproc", &InprocRunner{}},
		{"netmpi", &NetmpiRunner{OpTimeout: 10 * time.Second}},
	} {
		capture := &captureRunner{Runner: tc.runner}
		s := newTestScheduler(t, func(c *Config) {
			c.Workers = 1
			c.SmallN = -1
			c.Runner = capture
		})
		for i, v := range runSpecs(t, s, specs) {
			if v.Digest != want[i].Digest {
				t.Errorf("%s %s: digest %s with poisoned recycled operands, %s without", tc.name, specs[i].Shape, v.Digest, want[i].Digest)
			}
		}
		mu.Lock()
		for i, ops := range capture.operands {
			for k, p := range ops {
				if !poisoned[p] {
					t.Errorf("%s job %d: operand %c was not a recycled buffer", tc.name, i, "ABC"[k])
				}
			}
		}
		mu.Unlock()
	}
}
