package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestTraceEndpointMergedExport: with observability on and a netmpi run,
// GET /jobs/{id}/trace?format=chrome serves one Chrome trace holding the
// scheduler spans (pid 0) and every rank's engine stage spans on the
// engine lane (pid ChromePIDEngine, tid = rank). (The timeline lane, pid
// 2, is there on both runners: TestTraceTimelineAligned checks where it
// lies.)
func TestTraceEndpointMergedExport(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Sched.Runner = &sched.NetmpiRunner{OpTimeout: 10 * time.Second}
		c.Sched.Observe = true
	})
	_, raw := postJob(t, ts, `{"n": 48, "shape": "square-corner", "seed": 4}`)
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	pollTerminal(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", resp.StatusCode, body)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}

	names := map[string]bool{}
	pids := map[int]bool{}
	stageTids := map[int]bool{}
	for _, e := range events {
		names[e.Name] = true
		pids[e.PID] = true
		if e.PID == obs.ChromePIDEngine && (e.Name == "bcastA" || e.Name == "bcastB" || e.Name == "dgemm") {
			stageTids[e.TID] = true
		}
	}
	for _, want := range []string{"job", "admission", "queue", "plan", "attempt", "mesh-dial", "bcastA", "bcastB", "dgemm"} {
		if !names[want] {
			t.Errorf("merged trace missing %q span", want)
		}
	}
	if !pids[0] {
		t.Error("merged trace has no service span lane (pid 0)")
	}
	// One engine-lane thread per rank: square-corner on the 3-device test
	// platform runs 3 ranks.
	for rank := 0; rank < 3; rank++ {
		if !stageTids[rank] {
			t.Errorf("merged trace has no stage spans on rank %d's thread (pid %d, tid %d)", rank, obs.ChromePIDEngine, rank)
		}
	}

	// Unknown formats are rejected, not silently served.
	resp2, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace?format=jaeger")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("GET trace?format=jaeger = %d, want 400", resp2.StatusCode)
	}
}

// TestTraceEndpointMergesTimelineLane: the inproc runtime records a
// trace.Timeline; with observability on the export carries it as a third
// lane (pid 2) next to the span lanes.
func TestTraceEndpointMergesTimelineLane(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Sched.Observe = true })
	_, raw := postJob(t, ts, `{"n": 48, "shape": "square-corner", "seed": 4}`)
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	pollTerminal(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", resp.StatusCode, body)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for _, e := range events {
		pids[e.PID] = true
	}
	for _, pid := range []int{0, 1, 2} {
		if !pids[pid] {
			t.Errorf("merged inproc trace has no events in pid lane %d", pid)
		}
	}
}

// TestTraceTimelineAligned: on both runners the export places the engine's
// Timeline (pid 2) from its own Origin, on the spans' clock: every Timeline
// event lies inside the attempt span, and each DGEMM starts where the
// engine's span of the same rectangle on the same rank (pid 1) starts.
func TestTraceTimelineAligned(t *testing.T) {
	for _, runner := range []sched.Runner{&sched.InprocRunner{}, &sched.NetmpiRunner{OpTimeout: 10 * time.Second}} {
		t.Run(runner.Name(), func(t *testing.T) {
			_, ts := newTestServer(t, func(c *Config) {
				c.Sched.Runner = runner
				c.Sched.Observe = true
			})
			_, raw := postJob(t, ts, `{"n": 48, "shape": "square-corner", "seed": 4}`)
			var sub SubmitResponse
			if err := json.Unmarshal(raw, &sub); err != nil {
				t.Fatal(err)
			}
			pollTerminal(t, ts, sub.ID)
			resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var events []trace.ChromeEvent
			if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
				t.Fatal(err)
			}

			var attempt *trace.ChromeEvent
			spans := map[[2]any]trace.ChromeEvent{} // {name, rank} → engine span
			for i, e := range events {
				switch {
				case e.PID == obs.ChromePIDService && e.Name == "attempt":
					attempt = &events[i]
				case e.PID == obs.ChromePIDEngine:
					spans[[2]any{e.Name, e.TID}] = e
				}
			}
			if attempt == nil {
				t.Fatal("no attempt span in the trace")
			}
			const slackUs, dgemmUs = 1, 100
			tlEvents, dgemms := 0, 0
			for _, e := range events {
				if e.PID != obs.ChromePIDTimeline {
					continue
				}
				tlEvents++
				if e.TsUs < attempt.TsUs-slackUs || e.TsUs+e.DurUs > attempt.TsUs+attempt.DurUs+slackUs {
					t.Errorf("timeline event %s on rank %d at [%.1f, %.1f] µs lies outside the attempt span [%.1f, %.1f] µs",
						e.Name, e.TID, e.TsUs, e.TsUs+e.DurUs, attempt.TsUs, attempt.TsUs+attempt.DurUs)
				}
				if !strings.HasPrefix(e.Name, "dgemm[") {
					continue
				}
				dgemms++
				sp, ok := spans[[2]any{e.Name, e.TID}]
				if !ok {
					t.Errorf("timeline event %s on rank %d has no engine span of its name", e.Name, e.TID)
				} else if d := math.Abs(e.TsUs - sp.TsUs); d > dgemmUs {
					t.Errorf("timeline event %s on rank %d starts %.1f µs from its engine span, want within %d µs", e.Name, e.TID, d, dgemmUs)
				}
			}
			if tlEvents == 0 || dgemms == 0 {
				t.Fatalf("the trace has %d timeline events, %d of them DGEMMs: want both", tlEvents, dgemms)
			}
		})
	}
}

// TestTraceEndpointObserveOffKeepsLegacyShape: with observability off the
// endpoint still serves the engine timeline in the pre-span output shape
// (every event on pid 0).
func TestTraceEndpointObserveOffKeepsLegacyShape(t *testing.T) {
	_, ts := newTestServer(t, nil)
	_, raw := postJob(t, ts, `{"n": 48, "shape": "square-corner", "seed": 4}`)
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	pollTerminal(t, ts, sub.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", resp.StatusCode, body)
	}
	var events []trace.ChromeEvent
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	for _, e := range events {
		if e.PID != 0 {
			t.Fatalf("legacy trace event on pid %d, want 0", e.PID)
		}
	}
}
