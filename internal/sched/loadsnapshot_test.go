package sched

import (
	"testing"
	"time"
)

func TestLoadSnapshotReflectsQueueAndInflight(t *testing.T) {
	block := make(chan struct{})
	defer func() {
		select {
		case <-block:
		default:
			close(block)
		}
	}()
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
		c.Runner = &blockingRunner{release: block}
	})

	ls := s.LoadSnapshot()
	if ls.QueueDepth != 0 || ls.InFlight != 0 || ls.Workers != 1 || ls.Draining {
		t.Fatalf("idle snapshot: %+v", ls)
	}
	if ls.QueueCap != 256 {
		t.Fatalf("QueueCap = %d", ls.QueueCap)
	}

	// One job occupies the single worker; two more queue behind it.
	ids := make([]string, 3)
	tenants := []string{"t-a", "t-a", "t-b"}
	for i := range ids {
		v, err := s.Submit(JobSpec{N: 32, Tenant: tenants[i]})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	// Wait for the worker to pick up the head job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls = s.LoadSnapshot()
		if ls.InFlight == 1 && ls.QueueDepth == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never converged: %+v", ls)
		}
		time.Sleep(time.Millisecond)
	}
	if got := ls.Load(); got != 3 {
		t.Fatalf("Load() = %d, want 3", got)
	}
	if ls.PerTenant["t-a"] != 2 || ls.PerTenant["t-b"] != 1 {
		t.Fatalf("per-tenant counts: %v", ls.PerTenant)
	}

	// The snapshot is a copy: mutating it must not corrupt the scheduler.
	ls.PerTenant["t-a"] = 99
	if s.LoadSnapshot().PerTenant["t-a"] != 2 {
		t.Fatal("LoadSnapshot aliases internal tenant map")
	}

	close(block)
	for _, id := range ids {
		if v := waitTerminal(t, s, id, 30*time.Second); v.State != StateDone {
			t.Fatalf("job %s: %v", id, v.Err)
		}
	}
	ls = s.LoadSnapshot()
	if ls.QueueDepth != 0 || ls.InFlight != 0 || len(ls.PerTenant) != 0 {
		t.Fatalf("post-drain snapshot not empty: %+v", ls)
	}
}

func TestPlannerCacheStats(t *testing.T) {
	p := newTestPlanner()
	if h, m := p.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("fresh planner stats = %d/%d", h, m)
	}
	for _, spec := range []JobSpec{
		{N: 64, Shape: "auto"},
		{N: 64, Shape: "auto", Seed: 9}, // seed is not part of the plan key
		{N: 128, Shape: "auto"},
	} {
		if _, err := p.Plan(spec); err != nil {
			t.Fatal(err)
		}
	}
	h, m := p.CacheStats()
	if h != 1 || m != 2 {
		t.Fatalf("stats = hits %d / misses %d, want 1/2", h, m)
	}

	var nilP *Planner
	if h, m := nilP.CacheStats(); h != 0 || m != 0 {
		t.Fatal("nil planner CacheStats must be zero, not panic")
	}
}

func TestSchedulerMetricsIncludePlanCache(t *testing.T) {
	s := newTestScheduler(t, nil)
	for i := 0; i < 3; i++ {
		v, err := s.Submit(JobSpec{N: 32, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, s, v.ID, 30*time.Second); got.State != StateDone {
			t.Fatalf("job: %v", got.Err)
		}
	}
	m := s.Metrics()
	if m.PlanCacheMisses != 1 {
		t.Fatalf("PlanCacheMisses = %d, want 1 (one shape planned)", m.PlanCacheMisses)
	}
	if m.PlanCacheHits != 2 {
		t.Fatalf("PlanCacheHits = %d, want 2", m.PlanCacheHits)
	}
}
