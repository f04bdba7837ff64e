package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestMergedChromeTraceRoundTrip builds a recorder and a timeline, writes
// the merged export, decodes it back, and checks lane placement, clock
// alignment and args survive the trip.
func TestMergedChromeTraceRoundTrip(t *testing.T) {
	rec := NewRecorder()
	root := rec.Root("job").Str("id", "j-1")
	stage := root.Child("dgemm").OnRank(1).Float("flops", 100)
	stage.End()
	root.End()

	tl := &trace.Timeline{}
	tl.Add(trace.Event{Rank: 0, Kind: trace.Comm, Start: 0.001, End: 0.002, Bytes: 512, Label: "bcastA[0,1]"})
	tl.Add(trace.Event{Rank: 1, Kind: trace.Compute, Start: 0.002, End: 0.005, Flops: 42, Label: "dgemm[1,1]"})

	const offset = 250 * time.Millisecond
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec, tl, offset); err != nil {
		t.Fatal(err)
	}

	var events []trace.ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not a JSON event array: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4 (2 spans + 2 timeline)", len(events))
	}

	byName := map[string]trace.ChromeEvent{}
	for _, e := range events {
		if e.Phase != "X" {
			t.Errorf("event %q phase = %q, want X", e.Name, e.Phase)
		}
		byName[e.Name] = e
	}

	if e := byName["job"]; e.PID != ChromePIDService || e.TID != 0 {
		t.Errorf("service span lane = pid %d tid %d, want pid %d tid 0", e.PID, e.TID, ChromePIDService)
	}
	if e := byName["dgemm"]; e.PID != ChromePIDEngine || e.TID != 1 {
		t.Errorf("rank span lane = pid %d tid %d, want pid %d tid 1", e.PID, e.TID, ChromePIDEngine)
	}
	for _, name := range []string{"bcastA[0,1]", "dgemm[1,1]"} {
		e, ok := byName[name]
		if !ok {
			t.Fatalf("timeline event %q missing from merged export", name)
		}
		if e.PID != ChromePIDTimeline {
			t.Errorf("timeline event %q pid = %d, want %d", name, e.PID, ChromePIDTimeline)
		}
	}
	// Timeline events are shifted onto the span clock by the offset.
	wantTs := (0.001 + offset.Seconds()) * 1e6
	if got := byName["bcastA[0,1]"].TsUs; got != wantTs {
		t.Errorf("timeline ts = %g µs, want %g", got, wantTs)
	}

	args, ok := byName["dgemm"].Args.(map[string]any)
	if !ok {
		t.Fatalf("span args = %#v, want object", byName["dgemm"].Args)
	}
	if args["flops"] != 100.0 || args["parent"] != "job" {
		t.Errorf("span args = %v, want flops=100 parent=job", args)
	}
}

// TestMergedChromeTraceNilInputs: either side may be absent.
func TestMergedChromeTraceNilInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty export = %q, want []", got)
	}

	buf.Reset()
	rec := NewRecorder()
	rec.Root("only-spans").End()
	if err := WriteChromeTrace(&buf, rec, nil, 0); err != nil {
		t.Fatal(err)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 1 {
		t.Fatalf("spans-only export: %v, %d events", err, len(events))
	}
}

// TestOpenSpanRendersInstantaneous: an unclosed span must not produce a
// negative or absurd duration in the export.
func TestOpenSpanRendersInstantaneous(t *testing.T) {
	rec := NewRecorder()
	rec.Root("open")
	evs := ChromeEvents(rec.Spans(), rec.T0())
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if evs[0].DurUs != 0 {
		t.Errorf("open span duration = %g µs, want 0", evs[0].DurUs)
	}
}
