package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/fpm"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/sched"
)

func testPlatform() *device.Platform {
	mk := func(name string, speed float64) *device.Device {
		return &device.Device{
			Name:          name,
			PeakGFLOPS:    speed,
			MemBytes:      1 << 40,
			DynamicPowerW: 10,
			Speed:         fpm.Constant{S: speed},
		}
	}
	return &device.Platform{
		Name:    "serve-test",
		Devices: []*device.Device{mk("d0", 1.0), mk("d1", 2.0), mk("d2", 0.9)},
	}
}

// tlogWriter adapts t.Logf into an io.Writer for slog; writes after the
// test ends are dropped (drains can log from the cleanup path).
type tlogWriter struct {
	mu   sync.Mutex
	t    *testing.T
	done bool
}

func (w *tlogWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.done {
		w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	}
	return len(p), nil
}

// newTestServer builds a server over the in-process runtime and registers
// a cleanup drain.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	lw := &tlogWriter{t: t}
	cfg := Config{
		Sched: sched.Config{
			Workers:  4,
			QueueCap: 256,
			Planner:  &sched.Planner{Platform: testPlatform()},
			Runner:   &sched.InprocRunner{},
		},
		Logger: slog.New(slog.NewTextHandler(lw, nil)),
	}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		lw.mu.Lock()
		lw.done = true
		lw.mu.Unlock()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// pollTerminal polls the status API until the job reaches a terminal
// state.
func pollTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, st := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

func TestServeJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, raw := postJob(t, ts, `{"n": 64, "shape": "auto", "seed": 7, "verify": true, "tenant": "acme"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || sub.Location != "/jobs/"+sub.ID {
		t.Fatalf("submit response %+v", sub)
	}
	if loc := resp.Header.Get("Location"); loc != sub.Location {
		t.Fatalf("Location header %q, want %q", loc, sub.Location)
	}

	st := pollTerminal(t, ts, sub.ID)
	if st.State != "done" {
		t.Fatalf("job failed: %+v", st.Error)
	}
	if !st.Verified || st.Digest == "" {
		t.Fatalf("verified=%v digest=%q", st.Verified, st.Digest)
	}
	if st.Plan == nil || st.Plan.Shape == "" || len(st.Plan.Areas) != 3 {
		t.Fatalf("plan missing: %+v", st.Plan)
	}
	if st.Report == nil || st.Report.N != 64 || st.Report.Shape != st.Plan.Shape {
		t.Fatalf("report missing or inconsistent: %+v", st.Report)
	}
	if st.Tenant != "acme" || st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("status incomplete: %+v", st)
	}

	// The inproc runtime records a timeline; the trace endpoint serves it
	// as Chrome trace JSON.
	tr, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	traceRaw, _ := io.ReadAll(tr.Body)
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d: %s", tr.StatusCode, traceRaw)
	}
	var events []map[string]any
	if err := json.Unmarshal(traceRaw, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
}

func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)

	cases := []struct {
		name, body, wantKind string
	}{
		{"n too small", `{"n": 2}`, "bad_request"},
		{"n too large", `{"n": 100000}`, "bad_request"},
		{"bad speeds", `{"n": 32, "speeds": [1, -2, 1]}`, "bad_request"},
		{"verify too large", `{"n": 2000, "verify": true}`, "bad_request"},
		{"unknown shape", `{"n": 32, "shape": "pentagon"}`, "bad_shape"},
		{"unknown field", `{"n": 32, "shap": "auto"}`, "bad_request"},
		{"invalid json", `{`, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJob(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", resp.StatusCode, raw)
			}
			var body struct {
				Error ErrorDTO `json:"error"`
			}
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatal(err)
			}
			if body.Error.Kind != tc.wantKind {
				t.Fatalf("kind = %q, want %q (%s)", body.Error.Kind, tc.wantKind, raw)
			}
			if tc.wantKind == "bad_shape" && len(body.Error.ValidShapes) == 0 {
				t.Fatalf("bad_shape error must list valid shapes: %s", raw)
			}
		})
	}
}

func TestServeUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, _ := getStatus(t, ts, "j-999999")
	if code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/j-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown trace = %d, want 404", resp.StatusCode)
	}
}

// TestServeConcurrentLoad fires 48 concurrent submissions at a server with
// a small queue: the scheduler must bound its queue by rejecting with 429
// (not by hanging), and every accepted job must complete.
func TestServeConcurrentLoad(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Sched.Workers = 4
		c.Sched.QueueCap = 8
	})

	const clients = 48
	var mu sync.Mutex
	var accepted []string
	var rejected int

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"n": 48, "seed": %d}`, i)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			switch resp.StatusCode {
			case http.StatusAccepted:
				var sub SubmitResponse
				if err := json.Unmarshal(raw, &sub); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				accepted = append(accepted, sub.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				var body struct {
					Error ErrorDTO `json:"error"`
				}
				if err := json.Unmarshal(raw, &body); err != nil || body.Error.Kind != "queue_full" {
					t.Errorf("429 body: %s", raw)
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				t.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()

	if len(accepted) == 0 {
		t.Fatal("no submissions accepted")
	}
	t.Logf("accepted %d, rejected %d", len(accepted), rejected)
	for _, id := range accepted {
		st := pollTerminal(t, ts, id)
		if st.State != "done" {
			t.Fatalf("accepted job %s failed: %+v", id, st.Error)
		}
	}
}

func TestServePerTenantCap(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	_, ts := newTestServer(t, func(c *Config) {
		c.Sched.Workers = 1
		c.Sched.TenantCap = 2
		c.Sched.Runner = &gatedRunner{inner: &sched.InprocRunner{}, release: release}
	})

	// Two greedy-tenant jobs fill the cap (one running, one queued)...
	for i := 0; i < 2; i++ {
		resp, raw := postJob(t, ts, `{"n": 32, "tenant": "greedy"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, raw)
		}
	}
	// ...the third gets a tenant-attributed 429...
	resp, raw := postJob(t, ts, `{"n": 32, "tenant": "greedy"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit = %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("greedy")) {
		t.Fatalf("rejection does not name the tenant: %s", raw)
	}
	// ...while another tenant is unaffected.
	resp, raw = postJob(t, ts, `{"n": 32, "tenant": "patient"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d: %s", resp.StatusCode, raw)
	}
	close(release)
}

// gatedRunner blocks every Run until release closes — for queue-pressure
// tests.
type gatedRunner struct {
	inner   sched.Runner
	release chan struct{}
}

func (g *gatedRunner) Name() string { return g.inner.Name() }

func (g *gatedRunner) Run(id string, plan *sched.Plan, a, b, c *matrix.Dense, opts sched.RunOpts) (*core.Report, error) {
	<-g.release
	return g.inner.Run(id, plan, a, b, c, opts)
}

func TestServeMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, raw := postJob(t, ts, `{"n": 48, "shape": "square-corner", "seed": 3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}
	pollTerminal(t, ts, sub.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mraw, _ := io.ReadAll(mresp.Body)
	text := string(mraw)
	for _, want := range []string{
		"summagen_queue_depth ",
		"summagen_inflight_jobs ",
		"summagen_jobs_submitted_total 1",
		"summagen_jobs_done_total 1",
		`summagen_job_latency_seconds_count{shape="square-corner"} 1`,
		`summagen_job_latency_seconds_bucket{shape="square-corner",le="+Inf"} 1`,
		`summagen_jobs_by_runtime_total{runtime="inproc"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestServeHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" {
		t.Fatalf("healthz before drain: %+v", hz)
	}

	// Accept one job, then drain: the job must finish and later
	// submissions must get 503.
	presp, raw := postJob(t, ts, `{"n": 48, "seed": 1}`)
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", presp.StatusCode, raw)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	code, st := getStatus(t, ts, sub.ID)
	if code != http.StatusOK || st.State != "done" {
		t.Fatalf("drained job: code=%d state=%q err=%+v", code, st.State, st.Error)
	}

	dresp, draw := postJob(t, ts, `{"n": 48}`)
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d: %s", dresp.StatusCode, draw)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hz.Status != "draining" {
		t.Fatalf("healthz after drain: %+v", hz)
	}
}

// TestServeNetmpiFaultSurfacing runs the service on the netmpi runtime and
// kills one worker rank of the first job's mesh: the status API must
// report a peer_failed error attributing the true victim rank, while
// other in-flight jobs complete.
func TestServeNetmpiFaultSurfacing(t *testing.T) {
	const victimRank = 2
	inj := faultinject.New(faultinject.Plan{
		Rules: []faultinject.Rule{{
			Rank:        victimRank,
			Peer:        -1,
			AfterFrames: 1,
			Action:      faultinject.Close,
		}},
		SkipCount: netmpi.IsHeartbeatFrame,
	})
	runner := &sched.NetmpiRunner{
		OpTimeout: 1500 * time.Millisecond,
		WrapConn: func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
			if jobID != "j-000001" {
				return nil
			}
			return inj.WrapConn(rank)
		},
	}
	_, ts := newTestServer(t, func(c *Config) {
		c.Sched.Workers = 4
		c.Sched.Runner = runner
	})

	// First submission is j-000001 — the doomed mesh.
	resp, raw := postJob(t, ts, `{"n": 48, "seed": 1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST = %d: %s", resp.StatusCode, raw)
	}
	var doomed SubmitResponse
	if err := json.Unmarshal(raw, &doomed); err != nil {
		t.Fatal(err)
	}
	if doomed.ID != "j-000001" {
		t.Fatalf("first job id = %q", doomed.ID)
	}

	var healthy []string
	for i := 0; i < 3; i++ {
		resp, raw := postJob(t, ts, fmt.Sprintf(`{"n": 48, "seed": %d, "verify": true}`, 100+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST healthy %d = %d: %s", i, resp.StatusCode, raw)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		healthy = append(healthy, sub.ID)
	}

	st := pollTerminal(t, ts, doomed.ID)
	if st.State != "failed" || st.Error == nil {
		t.Fatalf("doomed job state=%q error=%+v", st.State, st.Error)
	}
	if st.Error.Kind != "peer_failed" {
		t.Fatalf("error kind = %q: %+v", st.Error.Kind, st.Error)
	}
	if st.Error.Rank == nil || *st.Error.Rank != victimRank {
		t.Fatalf("error rank = %v, want %d", st.Error.Rank, victimRank)
	}

	for _, id := range healthy {
		st := pollTerminal(t, ts, id)
		if st.State != "done" || !st.Verified {
			t.Fatalf("healthy job %s: state=%q verified=%v err=%+v", id, st.State, st.Verified, st.Error)
		}
	}

	// The failure shows up in metrics, attributed by kind.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mraw, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mraw), `summagen_job_failures_total{kind="peer_failed"} 1`) {
		t.Fatalf("metrics missing peer_failed counter:\n%s", mraw)
	}
}
