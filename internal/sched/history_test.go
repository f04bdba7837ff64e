package sched

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/trace"
)

// stubRunner multiplies nothing: it records one stage span and returns a
// Report with a small Timeline, so that 10⁵ jobs pass through a scheduler in
// seconds. The Run of job hold, when set, blocks until release is closed,
// after closing held.
type stubRunner struct {
	hold          string
	held, release chan struct{}
}

func (r *stubRunner) Name() string { return "stub" }

func (r *stubRunner) Run(jobID string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	if jobID == r.hold {
		close(r.held)
		<-r.release
	}
	opts.Span.Child("dgemm").End()
	tl := trace.NewCap(4)
	for rank := 0; rank < plan.Layout.P; rank++ {
		tl.Add(trace.Event{Rank: rank, Kind: trace.Compute, End: 1e-6, Label: "dgemm"})
	}
	return &core.Report{N: plan.Layout.N, Timeline: tl}, nil
}

// runStubJobs submits n jobs of spec, waiting for a free queue slot
// whenever the queue is full, and returns once all of them are terminal.
func runStubJobs(t *testing.T, s *Scheduler, finished chan struct{}, n int, spec JobSpec) {
	t.Helper()
	for i := 0; i < n; i++ {
		for {
			_, err := s.Submit(spec)
			if err == nil {
				break
			}
			var qf *QueueFullError
			if !errors.As(err, &qf) {
				t.Fatal(err)
			}
			<-finished
		}
	}
	for {
		m := s.Metrics()
		if m.QueueDepth == 0 && m.InFlight == 0 {
			return
		}
		<-finished
	}
}

// newStubScheduler builds a two-worker scheduler over r, with Observe on.
// finished receives (without blocking) whenever a job finishes.
func newStubScheduler(t *testing.T, r *stubRunner) (*Scheduler, chan struct{}) {
	t.Helper()
	finished := make(chan struct{}, 1)
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 2
		c.QueueCap = 64
		c.Runner = r
		c.Observe = true
		c.OnJobDone = func(JobView) {
			select {
			case finished <- struct{}{}:
			default:
			}
		}
	})
	return s, finished
}

func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// A long-running scheduler holds a bounded history: after the first
// maxTerminalJobs terminal jobs, the heap stops growing with the job count.
func TestSchedulerHistoryBounded(t *testing.T) {
	const warm, total = 10_000, 100_000
	baseline := runtime.NumGoroutine()
	s, finished := newStubScheduler(t, &stubRunner{})
	spec := JobSpec{N: 16, Shape: "square-corner", Speeds: []float64{1, 2, 0.9}}

	runStubJobs(t, s, finished, warm, spec)
	before := heapInuse()
	runStubJobs(t, s, finished, total-warm, spec)
	after := heapInuse()
	if grown := int64(after) - int64(before); grown >= 5<<20 {
		t.Errorf("HeapInuse grew %.1f MiB from job %d to job %d, want < 5 MiB",
			float64(grown)/(1<<20), warm, total)
	}

	s.mu.Lock()
	kept, traced := len(s.jobs), 0
	for _, j := range s.jobs {
		if j.rec != nil {
			traced++
		}
		if j.traceDropped && (j.report == nil || j.report.Timeline != nil) {
			t.Errorf("job %s dropped its trace but kept report %+v", j.id, j.report)
		}
	}
	s.mu.Unlock()
	if kept > maxTerminalJobs {
		t.Errorf("%d jobs kept, want at most %d", kept, maxTerminalJobs)
	}
	if traced > maxTracedJobs {
		t.Errorf("%d jobs hold a span recorder, want at most %d", traced, maxTracedJobs)
	}

	newest := fmt.Sprintf("j-%06d", total)
	if v, err := s.Get(newest); err != nil || v.Trace == nil || v.Report.Timeline == nil || v.TraceExpired {
		t.Errorf("newest job: err %v, traced %v, expired %v", err, v.Trace != nil, v.TraceExpired)
	}
	// Two workers finish jobs nearly, not exactly, in ID order: look well
	// past the newest maxTracedJobs.
	if v, err := s.Get(fmt.Sprintf("j-%06d", total-4*maxTracedJobs)); err != nil || v.Trace != nil || !v.TraceExpired {
		t.Errorf("job past the traced tier: err %v, traced %v, expired %v", err, v.Trace != nil, v.TraceExpired)
	}
	if _, err := s.Get("j-000001"); !errors.Is(err, ErrJobExpired) {
		t.Errorf("first job: err %v, want ErrJobExpired", err)
	}
	for _, id := range []string{fmt.Sprintf("j-%06d", total+1), "j-1", "r-000001", ""} {
		if _, err := s.Get(id); !errors.Is(err, ErrJobNotFound) {
			t.Errorf("Get(%q): err %v, want ErrJobNotFound", id, err)
		}
	}

	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("%d goroutines after drain, %d before the scheduler started", n, baseline)
	}
}

// Eviction takes only terminal jobs: a job blocked in its Runner stays
// readable, running and traced, while more than maxTerminalJobs others
// finish beside it.
func TestSchedulerHistoryKeepsLiveJobs(t *testing.T) {
	r := &stubRunner{hold: "j-000001", held: make(chan struct{}), release: make(chan struct{})}
	s, finished := newStubScheduler(t, r)
	spec := JobSpec{N: 16, Shape: "square-corner", Speeds: []float64{1, 2, 0.9}}
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	<-r.held

	const others = 5000
	for i := 0; i < others; i++ {
		for {
			_, err := s.Submit(spec)
			if err == nil {
				break
			}
			<-finished
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.Metrics().Counters.Done < others && time.Now().Before(deadline) {
		<-finished
	}

	v, err := s.Get("j-000001")
	if err != nil || v.State != StateRunning || v.Trace == nil || v.TraceExpired {
		t.Fatalf("blocked job: err %v, state %v, traced %v, expired %v", err, v.State, v.Trace != nil, v.TraceExpired)
	}
	if _, err := s.Get("j-000002"); !errors.Is(err, ErrJobExpired) {
		t.Errorf("oldest finished job: err %v, want ErrJobExpired", err)
	}
	s.mu.Lock()
	kept := len(s.jobs)
	s.mu.Unlock()
	if kept != maxTerminalJobs+1 {
		t.Errorf("%d jobs kept, want %d terminal and the running one", kept, maxTerminalJobs)
	}

	close(r.release)
	if v := waitTerminal(t, s, "j-000001", 10*time.Second); v.State != StateDone || v.Trace == nil {
		t.Fatalf("released job: state %v, err %v, traced %v", v.State, v.Err, v.Trace != nil)
	}
}
