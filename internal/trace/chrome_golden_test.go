package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestChromeTraceGolden pins the exact serialized bytes of the Chrome
// export: field names, ordering, pid/tid placement and µs scaling are all
// contract — chrome://tracing and the merged exporter (internal/obs) parse
// this shape, and a refactor that silently reorders or renames fields
// should fail here, not in a browser.
func TestChromeTraceGolden(t *testing.T) {
	tl := &Timeline{}
	tl.Add(Event{Rank: 0, Kind: Comm, Start: 0, End: 0.001, Bytes: 2048, Label: "bcastA[0,1]"})
	tl.Add(Event{Rank: 0, Kind: Compute, Start: 0.001, End: 0.0035, Flops: 1.25e6, Label: "dgemm[0,0]"})
	tl.Add(Event{Rank: 1, Kind: Comm, Start: 0.0002, End: 0.0012, Bytes: 4096, Label: "bcastB[1,0]"})
	tl.Add(Event{Rank: 1, Kind: Idle, Start: 0.0012, End: 0.002})

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export drifted from golden file\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestChromeEventsOffset verifies the offset used by merged exports shifts
// timestamps only, never durations or lanes.
func TestChromeEventsOffset(t *testing.T) {
	tl := &Timeline{}
	tl.Add(Event{Rank: 2, Kind: Compute, Start: 0.5, End: 0.75, Flops: 10})
	evs := ChromeEvents(tl, 7, 1.5)
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	e := evs[0]
	if e.TsUs != 2.0e6 {
		t.Errorf("ts = %g, want 2e6 (0.5s event + 1.5s offset)", e.TsUs)
	}
	if e.DurUs != 0.25e6 {
		t.Errorf("dur = %g, want 0.25e6", e.DurUs)
	}
	if e.PID != 7 || e.TID != 2 {
		t.Errorf("lane = pid %d tid %d, want pid 7 tid 2", e.PID, e.TID)
	}
}
