package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/slo"
)

// toggleFailRunner fails every job while tripped — the chaos source for
// burn-rate alert tests — and otherwise delegates to the in-process
// runtime.
type toggleFailRunner struct {
	fail  atomic.Bool
	inner sched.InprocRunner
}

func (r *toggleFailRunner) Name() string { return r.inner.Name() }

func (r *toggleFailRunner) Run(id string, plan *sched.Plan, a, b, c *matrix.Dense, opts sched.RunOpts) (*core.Report, error) {
	if r.fail.Load() {
		return nil, fmt.Errorf("injected SLO-test failure")
	}
	return r.inner.Run(id, plan, a, b, c, opts)
}

// sloTestServer builds a server with sub-second burn windows so alert
// fire/clear cycles run in test time, sampling driven manually.
func sloTestServer(t *testing.T) (*Server, *httptest.Server, *toggleFailRunner) {
	t.Helper()
	runner := &toggleFailRunner{}
	srv, ts := newTestServer(t, func(c *Config) {
		c.Sched.Runner = runner
		c.SampleInterval = -1
		c.SLOClearHold = 2
		c.SLORules = []slo.BurnRule{{Name: "fast", Short: time.Second, Long: 2 * time.Second, Threshold: 2}}
	})
	return srv, ts, runner
}

// TestSLOAlertFiresAndClears drives the full burn-rate alert lifecycle
// through the HTTP surface: failures fire the fast alert (visible on /slo
// and /healthz), healing clears it, and the flight recorder replays both
// transitions.
func TestSLOAlertFiresAndClears(t *testing.T) {
	srv, ts, runner := sloTestServer(t)

	srv.SampleNow() // baseline
	runner.fail.Store(true)
	// Two failure rounds with a sample between: a counter series' first
	// sample only anchors the burn window (increase() semantics), so the
	// second round is what the alert actually sees.
	for round := 0; round < 2; round++ {
		for i := 0; i < 2; i++ {
			resp, raw := postJob(t, ts, fmt.Sprintf(`{"n": 32, "tenant": "alpha", "seed": %d}`, round*2+i))
			var sub SubmitResponse
			if err := json.Unmarshal(raw, &sub); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
			}
			if st := pollTerminal(t, ts, sub.ID); st.State != "failed" {
				t.Fatalf("job %s = %s, want failed under injected chaos", sub.ID, st.State)
			}
		}
		srv.SampleNow()
	}

	var rep slo.Report
	mustGetJSON(t, ts.URL+"/slo", &rep)
	if rep.Firing == 0 {
		t.Fatalf("no alert firing after 100%% failures:\n%+v", rep)
	}
	var hs HealthStatus
	mustGetJSON(t, ts.URL+"/healthz", &hs)
	if hs.SLOFiring == 0 {
		t.Fatal("/healthz slo_firing = 0 while alert fires")
	}

	// Heal: stop failing, then sample at explicit times instead of sleeping
	// out the burn windows. Each tick lies more than the long window after
	// the one before, so from the second on a window holds no failure, and
	// ClearHold such quiet evaluations clear the alert.
	runner.fail.Store(false)
	healed := time.Now()
	for i := 1; i <= 3; i++ {
		srv.sampler.Tick(healed.Add(time.Duration(i) * 2100 * time.Millisecond))
	}
	mustGetJSON(t, ts.URL+"/slo", &rep)
	if rep.Firing != 0 {
		t.Fatalf("alert still firing after heal:\n%+v", rep)
	}

	var fired, cleared bool
	for _, ev := range srv.Events().Snapshot() {
		switch ev.Kind {
		case "alert_fire":
			fired = true
		case "alert_clear":
			cleared = true
		}
	}
	if !fired || !cleared {
		t.Fatalf("event log missing alert transitions (fired=%v cleared=%v): %+v",
			fired, cleared, srv.Events().Snapshot())
	}

	var rec FlightRecord
	mustGetJSON(t, ts.URL+"/debug/flightrecorder", &rec)
	if rec.WindowSeconds <= 0 || len(rec.Series) == 0 {
		t.Fatalf("flight record empty: window=%v series=%d", rec.WindowSeconds, len(rec.Series))
	}
	names := map[string]bool{}
	for _, s := range rec.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"summagen_jobs_submitted_total", "summagen_slo_requests_total"} {
		if !names[want] {
			t.Fatalf("flight record missing series %s (have %d series)", want, len(names))
		}
	}
	recFired, recCleared := false, false
	for _, ev := range rec.Events {
		switch ev.Kind {
		case "alert_fire":
			recFired = true
		case "alert_clear":
			recCleared = true
		}
	}
	if !recFired || !recCleared {
		t.Fatalf("flight record events missing alert transitions: %+v", rec.Events)
	}
}

// TestSLOClassPlumbing checks the class rides the X-SLO-Class header into
// job status and the per-class SLO label, and that bad class names 400.
func TestSLOClassPlumbing(t *testing.T) {
	srv, ts, _ := sloTestServer(t)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"n": 32, "tenant": "alpha"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-SLO-Class", "gold")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if st := pollTerminal(t, ts, sub.ID); st.State != "done" || st.Class != "gold" {
		t.Fatalf("status = %s class %q, want done/gold", st.State, st.Class)
	}
	srv.SampleNow()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	if want := `summagen_slo_requests_total{tenant="alpha",class="gold",outcome="ok"} 1`; !strings.Contains(string(body), want) {
		t.Fatalf("exposition missing %q", want)
	}

	if resp, raw := postJob(t, ts, `{"n": 32, "class": "not a valid class!"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid class accepted: %d %s", resp.StatusCode, raw)
	}
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("GET %s decode: %v\n%s", url, err, raw)
	}
}
