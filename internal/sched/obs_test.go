package sched

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// spanIndex maps span names to the spans carrying them.
func spanIndex(spans []obs.Span) map[string][]obs.Span {
	idx := map[string][]obs.Span{}
	for _, s := range spans {
		idx[s.Name] = append(idx[s.Name], s)
	}
	return idx
}

// TestObserveRecordsJobSpanTree: with Observe on, one inproc job yields a
// coherent span tree from admission down to the engine's per-rank stages.
func TestObserveRecordsJobSpanTree(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) { c.Observe = true })
	v, err := s.Submit(JobSpec{N: 48, Shape: "square-corner", Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID, 30*time.Second)
	if v.Err != nil {
		t.Fatal(v.Err)
	}
	if v.Trace == nil {
		t.Fatal("JobView.Trace nil with Observe on")
	}
	if v.Report == nil || v.Report.Timeline == nil || v.Report.Timeline.Origin.IsZero() {
		t.Fatal("the report's Timeline has no Origin to align it with the spans")
	}

	spans := v.Trace.Spans()
	idx := spanIndex(spans)
	for _, want := range []string{"job", "admission", "queue", "plan", "run", "attempt", "digest", "verify", "bcastA", "bcastB", "dgemm"} {
		if len(idx[want]) == 0 {
			t.Errorf("span %q missing from trace (have %d spans)", want, len(spans))
		}
	}
	// Engine stages are per rank: square-corner over the 3-device test
	// platform runs 3 ranks, each with its own bcastA/bcastB/dgemm.
	for _, stage := range []string{"bcastA", "bcastB", "dgemm"} {
		if got := len(idx[stage]); got != 3 {
			t.Errorf("%s spans = %d, want 3 (one per rank)", stage, got)
		}
		seen := map[int]bool{}
		for _, sp := range idx[stage] {
			if sp.Rank < 0 {
				t.Errorf("%s span has no rank attribution", stage)
			}
			seen[sp.Rank] = true
		}
		if len(seen) != 3 {
			t.Errorf("%s spans cover ranks %v, want 3 distinct", stage, seen)
		}
	}
	// Parent links: every non-root span points at an earlier span; the
	// root is the job span and is closed with a terminal-state attr.
	for i, sp := range spans {
		if i == 0 {
			if sp.Name != "job" || sp.Parent != -1 {
				t.Errorf("first span = %q parent %d, want job/-1", sp.Name, sp.Parent)
			}
			continue
		}
		if sp.Parent < 0 || sp.Parent >= i {
			t.Errorf("span %d (%s) parent = %d, want an earlier span", i, sp.Name, sp.Parent)
		}
	}
	var state string
	for _, a := range spans[0].Attrs {
		if a.Key == "state" {
			state = a.Str
		}
	}
	if state != "done" {
		t.Errorf("job span state attr = %q, want done", state)
	}
	if spans[0].End.IsZero() {
		t.Error("job span left open at finish")
	}
}

// TestObserveOffRecordsNothing: the default config must not grow a trace.
func TestObserveOffRecordsNothing(t *testing.T) {
	s := newTestScheduler(t, nil)
	v, err := s.Submit(JobSpec{N: 24, Shape: "square-corner"})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID, 30*time.Second)
	if v.Trace != nil {
		t.Fatalf("JobView.Trace = %d spans with Observe off, want nil", v.Trace.Len())
	}
}

// TestObserveDoesNotChangeDigests: observability must be purely passive —
// the same spec yields bit-identical results with it on and off.
func TestObserveDoesNotChangeDigests(t *testing.T) {
	spec := JobSpec{N: 96, Shape: "square-corner", Seed: 11}
	digests := map[bool]string{}
	for _, observe := range []bool{false, true} {
		s := newTestScheduler(t, func(c *Config) { c.Observe = observe })
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v = waitTerminal(t, s, v.ID, 30*time.Second)
		if v.Err != nil {
			t.Fatal(v.Err)
		}
		digests[observe] = v.Digest
	}
	if digests[false] != digests[true] {
		t.Errorf("digest differs with observability: off=%s on=%s", digests[false], digests[true])
	}
}

// TestNetmpiTransportMetricsAndCommVolume: a netmpi job populates the
// per-peer transport counters and the comm-volume audit, and the observed
// volume stays within a small factor of the model's prediction — the
// paper's communication-volume claim as a checked runtime invariant.
func TestNetmpiTransportMetricsAndCommVolume(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) {
		c.Observe = true
		c.Runner = &NetmpiRunner{OpTimeout: 10 * time.Second}
	})
	v, err := s.Submit(JobSpec{N: 64, Shape: "square-corner", Seed: 5, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID, 60*time.Second)
	if v.Err != nil {
		t.Fatal(v.Err)
	}
	if !v.Verified {
		t.Fatal("job not verified")
	}

	m := s.Metrics()
	if m.Net == nil {
		t.Fatal("Metrics.Net nil for a netmpi runner")
	}
	if len(m.Net.PerPeer) == 0 {
		t.Fatal("no per-peer transport counters recorded")
	}
	var totalRecv uint64
	for k, c := range m.Net.PerPeer {
		if k.Rank == k.Peer {
			t.Errorf("self-connection counter recorded: %+v", k)
		}
		totalRecv += c.BytesRecv
	}
	if totalRecv == 0 {
		t.Error("zero bytes received across the mesh")
	}

	vol, ok := m.CommVolumes["square-corner"]
	if !ok {
		t.Fatalf("no comm-volume audit for square-corner; have %v", m.CommVolumes)
	}
	if vol.Runs != 1 || vol.PredictedBytes == 0 {
		t.Fatalf("audit = %+v, want one run with a nonzero prediction", vol)
	}
	// Observed includes the epoch-agreement allgather on top of the
	// predicted broadcasts, so the ratio sits at or just above 1.0.
	if r := vol.Ratio(); r < 1.0 || r >= 1.5 {
		t.Errorf("comm-volume ratio = %g, want in [1.0, 1.5)", r)
	}

	idx := spanIndex(v.Trace.Spans())
	if len(idx["mesh-dial"]) == 0 || len(idx["attempt"]) == 0 {
		t.Errorf("netmpi trace lacks mesh-dial/attempt spans")
	}
	var att obs.Span
	for _, sp := range idx["attempt"] {
		att = sp
	}
	attrs := map[string]any{}
	for _, a := range att.Attrs {
		attrs[a.Key] = a.Value()
	}
	for _, key := range []string{"predicted_bytes", "observed_bytes", "volume_ratio"} {
		if _, ok := attrs[key]; !ok {
			t.Errorf("attempt span missing %q attr; have %v", key, attrs)
		}
	}
}
