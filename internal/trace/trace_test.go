package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Compute: "compute", Comm: "comm", Idle: "idle", Kind(9): "kind(9)"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestEventDuration(t *testing.T) {
	e := Event{Start: 1.5, End: 4.0}
	if e.Duration() != 2.5 {
		t.Fatalf("Duration = %v", e.Duration())
	}
}

func TestAddAndEventsSorted(t *testing.T) {
	tl := New()
	tl.Add(Event{Rank: 1, Kind: Comm, Start: 5, End: 6})
	tl.Add(Event{Rank: 0, Kind: Compute, Start: 2, End: 3})
	tl.Add(Event{Rank: 0, Kind: Compute, Start: 0, End: 1})
	ev := tl.Events()
	if len(ev) != 3 || tl.Len() != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Rank != 0 || ev[0].Start != 0 || ev[2].Rank != 1 {
		t.Fatalf("events not sorted: %+v", ev)
	}
}

func TestSummarize(t *testing.T) {
	tl := New()
	tl.Add(Event{Rank: 0, Kind: Compute, Start: 0, End: 2, Flops: 100})
	tl.Add(Event{Rank: 0, Kind: Comm, Start: 2, End: 3, Bytes: 8})
	tl.Add(Event{Rank: 0, Kind: Idle, Start: 3, End: 4})
	tl.Add(Event{Rank: 2, Kind: Compute, Start: 0, End: 5, Flops: 500})
	bs := tl.Summarize()
	if len(bs) != 2 {
		t.Fatalf("got %d breakdowns", len(bs))
	}
	b0 := bs[0]
	if b0.Rank != 0 || b0.ComputeTime != 2 || b0.CommTime != 1 || b0.IdleTime != 1 {
		t.Fatalf("rank0 breakdown: %+v", b0)
	}
	if b0.BytesMoved != 8 || b0.Flops != 100 || b0.Finish != 4 {
		t.Fatalf("rank0 aggregates: %+v", b0)
	}
	if b0.Total() != 4 {
		t.Fatalf("Total = %v", b0.Total())
	}
	if bs[1].Rank != 2 || bs[1].Finish != 5 {
		t.Fatalf("rank2 breakdown: %+v", bs[1])
	}
}

func TestMaxOver(t *testing.T) {
	bs := []Breakdown{{CommTime: 1}, {CommTime: 7}, {CommTime: 3}}
	if got := MaxOver(bs, func(b Breakdown) float64 { return b.CommTime }); got != 7 {
		t.Fatalf("MaxOver = %v", got)
	}
	if got := MaxOver(nil, func(b Breakdown) float64 { return 1 }); got != 0 {
		t.Fatalf("MaxOver(empty) = %v", got)
	}
}

func TestConcurrentAdd(t *testing.T) {
	tl := New()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tl.Add(Event{Rank: rank, Kind: Compute, Start: float64(i), End: float64(i) + 1})
			}
		}(r)
	}
	wg.Wait()
	if tl.Len() != 800 {
		t.Fatalf("got %d events, want 800", tl.Len())
	}
	bs := tl.Summarize()
	if len(bs) != 8 {
		t.Fatalf("got %d ranks", len(bs))
	}
	for _, b := range bs {
		if b.ComputeTime != 100 {
			t.Fatalf("rank %d compute = %v", b.Rank, b.ComputeTime)
		}
	}
}

func TestRender(t *testing.T) {
	tl := New()
	tl.Add(Event{Rank: 0, Kind: Compute, Start: 0, End: 1})
	s := Render(tl.Summarize())
	if !strings.Contains(s, "rank") || !strings.Contains(s, "compute(s)") {
		t.Fatalf("Render header missing: %q", s)
	}
	if !strings.Contains(s, "1.000000") {
		t.Fatalf("Render value missing: %q", s)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tl := New()
	tl.Add(Event{Rank: 0, Kind: Compute, Start: 0, End: 0.5, Flops: 100, Label: "dgemm"})
	tl.Add(Event{Rank: 1, Kind: Comm, Start: 0.1, End: 0.3, Bytes: 64})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	first := events[0]
	if first["name"] != "dgemm" || first["cat"] != "compute" || first["ph"] != "X" {
		t.Fatalf("first event: %v", first)
	}
	if first["dur"].(float64) != 0.5e6 {
		t.Fatalf("duration: %v", first["dur"])
	}
	// The comm event falls back to the kind name and carries bytes.
	second := events[1]
	if second["name"] != "comm" || second["tid"].(float64) != 1 {
		t.Fatalf("second event: %v", second)
	}
}
