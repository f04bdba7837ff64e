package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRankTraceEncodeDecodeRoundTrip(t *testing.T) {
	rec := NewRecorder()
	root := rec.Root("rank").OnRank(2).Int("rank", 2)
	stage := root.Child("dgemm").OnRank(2)
	cell := stage.Child("dgemm[0,1]").OnRank(2).Float("flops", 1e9).Str("kernel", "goblas")
	cell.End()
	stage.End()
	open := root.Child("bcastA").OnRank(2) // deliberately left open
	_ = open
	root.End()

	rt, err := DecodeRankTrace(EncodeRankTrace(2, rec))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rank != 2 {
		t.Fatalf("rank = %d, want 2", rt.Rank)
	}
	want := rec.Spans()
	if len(rt.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(rt.Spans), len(want))
	}
	for i, s := range rt.Spans {
		w := want[i]
		if s.Name != w.Name || s.Rank != w.Rank || s.Parent != w.Parent {
			t.Fatalf("span %d: got %+v, want %+v", i, s, w)
		}
		// The wire carries monotonic-clock offsets from T0, so wall-clock
		// reconstruction can jitter by the wall/monotonic skew between the
		// two time.Now() reads — nanoseconds, never microseconds.
		if s.Start.Sub(w.Start).Abs() > time.Microsecond {
			t.Fatalf("span %d: start drifted by %v", i, s.Start.Sub(w.Start))
		}
		if w.End.IsZero() != s.End.IsZero() {
			t.Fatalf("span %d: open/closed state flipped", i)
		}
		if len(s.Attrs) != len(w.Attrs) {
			t.Fatalf("span %d: got %d attrs, want %d", i, len(s.Attrs), len(w.Attrs))
		}
		for j, a := range s.Attrs {
			if a != w.Attrs[j] {
				t.Fatalf("span %d attr %d: got %+v, want %+v", i, j, a, w.Attrs[j])
			}
		}
	}
	// Durations must survive exactly: the wire is nanoseconds since T0.
	if d, wd := rt.Spans[2].Duration(), want[2].Duration(); d != wd {
		t.Fatalf("cell duration %v != %v", d, wd)
	}
}

func TestDecodeRankTraceRejectsCorruptBlobs(t *testing.T) {
	if _, err := DecodeRankTrace([]byte("not json")); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := DecodeRankTrace([]byte(`{"v":99,"rank":0,"t0":0}`)); err == nil {
		t.Fatal("future version must be rejected")
	}
	// A span whose parent points forward would make the merge cyclic.
	blob, _ := json.Marshal(wireRankTrace{V: shipVersion, Rank: 1, Spans: []wireSpan{
		{Name: "a", Parent: 1}, {Name: "b", Parent: -1},
	}})
	if _, err := DecodeRankTrace(blob); err == nil {
		t.Fatal("forward parent link must be rejected")
	}
}

func TestRemoteChromeEventsRebaseByOffset(t *testing.T) {
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	const offset = 1.5 // remote clock runs 1.5s ahead of local
	rt := RemoteTrace{
		Rank: 1,
		T0:   t0.Add(time.Duration(offset * float64(time.Second))),
		Spans: []Span{{
			Name:   "rank",
			Rank:   1,
			Parent: -1,
			// On the remote clock this starts 1.6s after local t0; rebased
			// by the offset it must land at +100ms.
			Start: t0.Add(1600 * time.Millisecond),
			End:   t0.Add(1900 * time.Millisecond),
		}},
		OffsetSeconds:      offset,
		UncertaintySeconds: 0.002,
	}
	events := RemoteChromeEvents(rt, t0)
	if len(events) != 2 {
		t.Fatalf("got %d events, want metadata + span", len(events))
	}
	meta := events[0]
	if meta.Phase != "M" || meta.PID != ChromePIDRemoteBase+1 {
		t.Fatalf("metadata event wrong: %+v", meta)
	}
	name := meta.Args.(map[string]any)["name"].(string)
	if !strings.Contains(name, "rank 1") || !strings.Contains(name, "1500.000ms") {
		t.Fatalf("lane name must carry the applied offset, got %q", name)
	}
	sp := events[1]
	if sp.PID != ChromePIDRemoteBase+1 {
		t.Fatalf("span pid = %d, want %d", sp.PID, ChromePIDRemoteBase+1)
	}
	if got, want := sp.TsUs, 100_000.0; got < want-1 || got > want+1 {
		t.Fatalf("rebased ts = %.1fus, want ~%.1fus", got, want)
	}
	if got, want := sp.DurUs, 300_000.0; got < want-1 || got > want+1 {
		t.Fatalf("dur = %.1fus, want ~%.1fus", got, want)
	}
	args := sp.Args.(map[string]any)
	if args["clock_offset_seconds"] != offset {
		t.Fatalf("root span must carry the offset, got %v", args["clock_offset_seconds"])
	}
}

func TestWriteDistributedChromeTraceAddsLanes(t *testing.T) {
	rec := NewRecorder()
	rec.Root("job").End()
	remote := RemoteTrace{Rank: 1, Spans: []Span{{Name: "rank", Rank: 1, Parent: -1, Start: rec.T0(), End: rec.T0().Add(time.Millisecond)}}}

	var plain, dist bytes.Buffer
	if err := WriteChromeTrace(&plain, rec, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := WriteDistributedChromeTrace(&dist, rec, nil, 0, []RemoteTrace{remote}); err != nil {
		t.Fatal(err)
	}
	var plainEvents, distEvents []map[string]any
	if err := json.Unmarshal(plain.Bytes(), &plainEvents); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(dist.Bytes(), &distEvents); err != nil {
		t.Fatal(err)
	}
	if len(distEvents) != len(plainEvents)+2 {
		t.Fatalf("distributed trace has %d events, want %d + metadata + span", len(distEvents), len(plainEvents))
	}
	lanes := map[float64]bool{}
	for _, e := range distEvents {
		lanes[e["pid"].(float64)] = true
	}
	if !lanes[float64(ChromePIDRemoteBase+1)] {
		t.Fatal("remote rank 1 lane missing from merged trace")
	}
}

func TestAnalyzeStageSpans(t *testing.T) {
	rec := NewRecorder()
	mk := func(rank int, name string, startMs, endMs int64, flops float64) {
		h := rec.Root(name).OnRank(rank)
		if flops > 0 {
			h.Float("flops", flops)
		}
		rec.mu.Lock()
		rec.spans[h.idx].Start = rec.t0.Add(time.Duration(startMs) * time.Millisecond)
		rec.spans[h.idx].End = rec.t0.Add(time.Duration(endMs) * time.Millisecond)
		rec.mu.Unlock()
	}
	// Rank 0: 100ms dgemm stage; rank 1: 300ms — mean 200ms, max 300ms.
	mk(0, "bcastA", 0, 10, 0)
	mk(0, "bcastB", 10, 20, 0)
	mk(0, "dgemm", 20, 120, 0)
	mk(0, "dgemm[0,0]", 20, 120, 2e9)
	mk(1, "bcastA", 0, 15, 0)
	mk(1, "bcastB", 15, 30, 0)
	mk(1, "dgemm", 30, 330, 0)
	mk(1, "dgemm[1,0]", 30, 230, 3e9)
	mk(1, "dgemm[1,1]", 230, 330, 1e9)
	mk(1, "comm-wait", 30, 40, 0) // not a stage name: counts toward no total
	mk(1, "ckpt-save", 320, 325, 0)
	rec.Root("service-span").End() // rank -1: must not contribute

	rep := AnalyzeStageSpans(rec.Spans())
	if rep == nil {
		t.Fatal("nil report for a ranked trace")
	}
	if len(rep.Ranks) != 2 || rep.Ranks[0].Rank != 0 || rep.Ranks[1].Rank != 1 {
		t.Fatalf("ranks = %+v", rep.Ranks)
	}
	if got := rep.ImbalanceRatio; got < 1.499 || got > 1.501 {
		t.Fatalf("imbalance ratio = %.4f, want 1.5 (max 300ms / mean 200ms)", got)
	}
	if rep.SlowestRank != 1 {
		t.Fatalf("slowest rank = %d, want 1", rep.SlowestRank)
	}
	r1 := rep.Ranks[1]
	if r1.DgemmFlops != 4e9 {
		t.Fatalf("rank 1 flops = %g, want 4e9", r1.DgemmFlops)
	}
	if got, want := r1.DgemmGFLOPS, 4.0/0.3; got < want*0.999 || got > want*1.001 {
		t.Fatalf("rank 1 gflops = %.3f, want %.3f", got, want)
	}
	if r1.CommWaitSeconds != 0 {
		t.Fatalf("rank 1 comm-wait = %.4fs, want 0", r1.CommWaitSeconds)
	}
	if r1.CkptSeconds < 0.0049 || r1.CkptSeconds > 0.0051 {
		t.Fatalf("rank 1 ckpt = %.4fs, want 5ms", r1.CkptSeconds)
	}

	if AnalyzeStageSpans(nil) != nil {
		t.Fatal("empty input must yield nil")
	}
	if AnalyzeStageSpans([]Span{{Name: "plan", Rank: -1}}) != nil {
		t.Fatal("service-only trace must yield nil")
	}
}
