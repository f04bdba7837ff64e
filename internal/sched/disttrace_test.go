package sched

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
)

// attemptOf returns the index of the attempt span above span i of spans, a
// job recorder's, or -1 when none is.
func attemptOf(spans []obs.Span, i int) int {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if spans[p].Name == "attempt" {
			return p
		}
	}
	return -1
}

// engineNames returns, per rank, the sorted names of the rank-tagged spans
// of spans, failing the test for any that sits under no attempt span.
func engineNames(t *testing.T, spans []obs.Span) map[int][]string {
	t.Helper()
	names := map[int][]string{}
	for i, sp := range spans {
		if sp.Rank < 0 {
			continue
		}
		if attemptOf(spans, i) < 0 {
			t.Errorf("rank %d span %q sits under no attempt span", sp.Rank, sp.Name)
		}
		names[sp.Rank] = append(names[sp.Rank], sp.Name)
	}
	for _, ns := range names {
		slices.Sort(ns)
	}
	return names
}

// TestNetmpiDistributedTraceLanes: an observed netmpi job records every
// rank's engine spans on the job recorder, under its attempt span, with the
// same names per rank as an in-process job of the same spec; the report
// carries the straggler analytics over all ranks, and the Chrome export
// renders each rank as a thread of the engine lane, its dgemm span inside
// the scheduler's run span.
func TestNetmpiDistributedTraceLanes(t *testing.T) {
	spec := JobSpec{N: 64, Shape: "square-corner", Seed: 5, Verify: true}
	views := map[string]JobView{}
	for name, runner := range map[string]Runner{"inproc": &InprocRunner{}, "netmpi": &NetmpiRunner{OpTimeout: 10 * time.Second}} {
		s := newTestScheduler(t, func(c *Config) {
			c.Observe = true
			c.Runner = runner
		})
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v = waitTerminal(t, s, v.ID, 60*time.Second)
		if v.Err != nil {
			t.Fatal(v.Err)
		}
		if v.Report == nil || v.Trace == nil {
			t.Fatalf("%s: no report or trace with Observe on", name)
		}
		views[name] = v
	}
	v := views["netmpi"]
	rep := v.Report
	p := len(rep.PerRank)
	if p == 0 {
		t.Fatal("no per-rank breakdowns")
	}
	spans := v.Trace.Spans()
	got, want := engineNames(t, spans), engineNames(t, views["inproc"].Trace.Spans())
	if len(got) != p {
		t.Fatalf("engine spans from %d ranks, want %d", len(got), p)
	}
	for rank := range want {
		if !slices.Equal(got[rank], want[rank]) {
			t.Errorf("rank %d: netmpi spans %v, inproc spans %v", rank, got[rank], want[rank])
		}
	}

	// Straggler analytics: one stats row per rank, ratio ≥ 1 by
	// construction, slowest rank attributed.
	if rep.Imbalance == nil {
		t.Fatal("no imbalance report on an observed netmpi job")
	}
	if len(rep.Imbalance.Ranks) != p {
		t.Fatalf("imbalance covers %d ranks, want %d", len(rep.Imbalance.Ranks), p)
	}
	if r := rep.Imbalance.ImbalanceRatio; r < 1 {
		t.Fatalf("imbalance ratio %.4f < 1 — max/mean cannot be below one", r)
	}
	if sr := rep.Imbalance.SlowestRank; sr < 0 || sr >= p {
		t.Fatalf("slowest rank %d out of range", sr)
	}

	// The ranks record on the job recorder's clock: every dgemm stage lies
	// inside the run span.
	idx := spanIndex(spans)
	if len(idx["run"]) != 1 || idx["run"][0].End.IsZero() {
		t.Fatal("no closed run span on the job trace")
	}
	run := idx["run"][0]
	for _, sp := range idx["dgemm"] {
		if sp.End.IsZero() || sp.Start.Before(run.Start) || sp.End.After(run.End) {
			t.Errorf("rank %d dgemm [%v, %v] outside run span [%v, %v]", sp.Rank, sp.Start, sp.End, run.Start, run.End)
		}
	}

	// The Chrome export renders one engine-lane thread per rank.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, v.Trace, rep.Timeline); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	dgemmTids := map[int]bool{}
	for _, e := range events {
		if int(e["pid"].(float64)) == obs.ChromePIDEngine && e["name"] == "dgemm" {
			dgemmTids[int(e["tid"].(float64))] = true
		}
	}
	for r := 0; r < p; r++ {
		if !dgemmTids[r] {
			t.Errorf("Chrome trace has no dgemm span on rank %d's thread (pid %d, tid %d)", r, obs.ChromePIDEngine, r)
		}
	}
}

// TestRecoveredNetmpiImbalanceIsFinalAttempt: a netmpi job whose rank 2 dies
// in the broadcasts of its first attempt recovers on the two survivors. Its
// imbalance report covers exactly the final attempt's two ranks, while the
// failed attempt's engine spans, rank 2's among them, stay on the job trace
// under that attempt's span.
func TestRecoveredNetmpiImbalanceIsFinalAttempt(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) {
		c.Observe = true
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = 10 * time.Millisecond
		c.Runner = &NetmpiRunner{
			OpTimeout:         1500 * time.Millisecond,
			HeartbeatInterval: 100 * time.Millisecond,
			// Frame 1 of every connection is the epoch fence; frame 2 of
			// rank 2's link to rank 0 is its first broadcast.
			WrapConn: chaosHook(2, 2),
		}
	})
	v, err := s.Submit(JobSpec{N: 48, Shape: "square-corner", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	v = waitTerminal(t, s, v.ID, 90*time.Second)
	if v.State != StateDone || v.Attempts != 1 || !slices.Equal(v.RecoveredFrom, []int{2}) {
		t.Fatalf("state %v, attempts %d, recovered from %v, err %v; want done after losing rank 2 once",
			v.State, v.Attempts, v.RecoveredFrom, v.Err)
	}
	if v.Report == nil || v.Report.Imbalance == nil {
		t.Fatal("no imbalance report on an observed recovered job")
	}
	var ranks []int
	for _, st := range v.Report.Imbalance.Ranks {
		ranks = append(ranks, st.Rank)
	}
	if !slices.Equal(ranks, []int{0, 1}) {
		t.Errorf("imbalance covers ranks %v, want the final attempt's [0 1]", ranks)
	}

	spans := v.Trace.Spans()
	byEpoch := map[int64]map[int]bool{}
	for i, sp := range spans {
		if sp.Rank < 0 {
			continue
		}
		att := attemptOf(spans, i)
		if att < 0 {
			t.Fatalf("rank %d span %q sits under no attempt span", sp.Rank, sp.Name)
		}
		epoch := int64(-1)
		for _, a := range spans[att].Attrs {
			if a.Key == "epoch" {
				epoch = a.Int
			}
		}
		if byEpoch[epoch] == nil {
			byEpoch[epoch] = map[int]bool{}
		}
		byEpoch[epoch][sp.Rank] = true
	}
	if len(byEpoch) != 2 || len(byEpoch[0]) != 3 || len(byEpoch[1]) != 2 {
		t.Errorf("engine span ranks by attempt epoch = %v, want epoch 0: ranks 0–2, epoch 1: ranks 0–1", byEpoch)
	}
}

// TestNetmpiObserveDoesNotChangeDigests: recording spans must be purely
// passive on the netmpi runtime too — the same spec yields bit-identical
// results with observability on and off.
func TestNetmpiObserveDoesNotChangeDigests(t *testing.T) {
	spec := JobSpec{N: 96, Shape: "square-corner", Seed: 11}
	digests := map[bool]string{}
	for _, observe := range []bool{false, true} {
		s := newTestScheduler(t, func(c *Config) {
			c.Observe = observe
			c.Runner = &NetmpiRunner{OpTimeout: 10 * time.Second}
		})
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		v = waitTerminal(t, s, v.ID, 60*time.Second)
		if v.Err != nil {
			t.Fatal(v.Err)
		}
		digests[observe] = v.Digest
	}
	if digests[false] != digests[true] {
		t.Errorf("digest differs with tracing: off=%s on=%s", digests[false], digests[true])
	}
}
