package slo

import (
	"testing"
	"time"

	"repro/internal/metrics"
)

var t0 = time.Unix(1_700_000_000, 0)

// harness drives a registry+store+engine with manual 1s ticks.
type harness struct {
	reg     *metrics.Registry
	store   *metrics.Store
	sampler *metrics.Sampler
	eng     *Engine
	reqs    *metrics.CounterVec
	lat     *metrics.HistogramVec
	trans   []Transition
	tick    int
}

func newHarness(t *testing.T, objectives []Objective, rules []BurnRule, clearHold int) *harness {
	t.Helper()
	h := &harness{reg: metrics.New(), store: metrics.NewStore(time.Minute, time.Second)}
	h.reqs = h.reg.CounterVec(RequestsFamily, "tenant", "class", "outcome")
	h.lat = h.reg.HistogramVec(LatencyFamily, []float64{0.1, 1, 10}, "tenant", "class")
	h.eng = New(Config{
		Store:        h.store,
		Objectives:   objectives,
		Rules:        rules,
		ClearHold:    clearHold,
		OnTransition: func(tr Transition) { h.trans = append(h.trans, tr) },
	})
	h.sampler = metrics.NewSampler(h.reg, h.store, time.Second, h.eng.Tick)
	return h
}

func (h *harness) step() time.Time {
	now := t0.Add(time.Duration(h.tick) * time.Second)
	h.sampler.Tick(now)
	h.tick++
	return now
}

// rules with windows of a few seconds so a one-minute store covers them.
func testRules() []BurnRule {
	return []BurnRule{{Name: "fast", Short: 3 * time.Second, Long: 10 * time.Second, Threshold: 14.4}}
}

func TestAvailabilityBurnFiresAndClearsWithHysteresis(t *testing.T) {
	h := newHarness(t, []Objective{{Class: "default", Availability: 0.999}}, testRules(), 3)

	// Healthy baseline: no alert.
	for i := 0; i < 3; i++ {
		h.reqs.With("acme", "default", "ok").Inc()
		h.step()
	}
	if n := h.eng.FiringCount(); n != 0 {
		t.Fatalf("firing = %d before any errors", n)
	}

	// 100% errors: burn = 1000× budget ≫ 14.4 in both windows.
	for i := 0; i < 4; i++ {
		h.reqs.With("acme", "default", "error").Add(5)
		h.step()
	}
	if n := h.eng.FiringCount(); n != 1 {
		t.Fatalf("firing = %d after sustained errors, want 1", n)
	}
	if len(h.trans) != 1 || !h.trans[0].Firing || h.trans[0].SLI != "availability" {
		t.Fatalf("transitions = %+v", h.trans)
	}

	// Recovery: ok traffic only. The short window drains first; the
	// alert must hold for ClearHold quiet evaluations before clearing.
	cleared := -1
	for i := 0; i < 20; i++ {
		h.reqs.With("acme", "default", "ok").Add(5)
		h.step()
		if h.eng.FiringCount() == 0 {
			cleared = i
			break
		}
	}
	if cleared < 0 {
		t.Fatal("alert never cleared after heal")
	}
	if cleared < 3 {
		t.Fatalf("alert cleared after %d ticks — hysteresis (ClearHold=3) not applied", cleared+1)
	}
	last := h.trans[len(h.trans)-1]
	if last.Firing {
		t.Fatalf("last transition should be a clear: %+v", h.trans)
	}
}

func TestAlertDoesNotClearOnBriefDip(t *testing.T) {
	h := newHarness(t, []Objective{{Class: "default", Availability: 0.999}}, testRules(), 3)
	for i := 0; i < 5; i++ {
		h.reqs.With("acme", "default", "error").Add(5)
		h.step()
	}
	if h.eng.FiringCount() != 1 {
		t.Fatal("alert should fire")
	}
	// Two quiet ticks (below ClearHold), then errors resume: still firing,
	// and no clear transition ever emitted.
	h.reqs.With("acme", "default", "ok").Add(5)
	h.step()
	h.reqs.With("acme", "default", "ok").Add(5)
	h.step()
	for i := 0; i < 3; i++ {
		h.reqs.With("acme", "default", "error").Add(5)
		h.step()
	}
	if h.eng.FiringCount() != 1 {
		t.Fatal("alert flapped off during a brief dip")
	}
	for _, tr := range h.trans {
		if !tr.Firing {
			t.Fatalf("spurious clear transition: %+v", h.trans)
		}
	}
}

func TestLatencyBurnUsesTargetBucket(t *testing.T) {
	h := newHarness(t,
		[]Objective{{Class: "default", Availability: 0.999, LatencyTarget: 1}},
		testRules(), 3)
	// All requests succeed but are slow (5s > 1s target): the latency
	// SLI burns while availability stays clean.
	for i := 0; i < 5; i++ {
		h.reqs.With("acme", "default", "ok").Add(5)
		for j := 0; j < 5; j++ {
			h.lat.With("acme", "default").Observe(5)
		}
		h.step()
	}
	rep := h.eng.Report(t0.Add(time.Duration(h.tick) * time.Second))
	if len(rep.Objectives) != 1 {
		t.Fatalf("objectives = %+v", rep.Objectives)
	}
	var avail, lat *SLIStatus
	for i := range rep.Objectives[0].SLIs {
		s := &rep.Objectives[0].SLIs[i]
		switch s.Name {
		case "availability":
			avail = s
		case "latency":
			lat = s
		}
	}
	if avail == nil || lat == nil {
		t.Fatalf("SLIs = %+v", rep.Objectives[0].SLIs)
	}
	if avail.Alerts[0].Firing {
		t.Fatal("availability fired with zero errors")
	}
	if !lat.Alerts[0].Firing {
		t.Fatalf("latency alert not firing: %+v", lat)
	}
	if rep.Firing != 1 {
		t.Fatalf("report firing = %d, want 1", rep.Firing)
	}
}

func TestObjectiveFallbackToDefaultClass(t *testing.T) {
	h := newHarness(t, []Objective{
		{Class: "default", Availability: 0.99},
		{Class: "gold", Availability: 0.9999},
	}, testRules(), 3)
	h.reqs.With("a", "gold", "ok").Inc()
	h.reqs.With("a", "bronze", "ok").Inc()
	h.step()
	rep := h.eng.Report(t0.Add(time.Second))
	got := map[string]float64{}
	for _, o := range rep.Objectives {
		got[o.Class] = o.Availability
	}
	if got["gold"] != 0.9999 {
		t.Fatalf("gold target = %g", got["gold"])
	}
	if got["bronze"] != 0.99 {
		t.Fatalf("bronze should fall back to default: %g", got["bronze"])
	}
}

func TestZeroTrafficBurnsNothing(t *testing.T) {
	h := newHarness(t, nil, testRules(), 3)
	h.reqs.With("a", "default", "ok").Inc()
	for i := 0; i < 30; i++ {
		h.step() // no further traffic at all
	}
	if n := h.eng.FiringCount(); n != 0 {
		t.Fatalf("firing = %d with zero traffic", n)
	}
}
