package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/slo"
)

// getKind GETs path from h and returns the status code and, for an error
// body, its kind.
func getKind(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var e struct {
		Error *ErrorDTO `json:"error"`
	}
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil {
			t.Fatalf("GET %s = %d with body %q", path, rec.Code, rec.Body)
		}
		return rec.Code, e.Error.Kind
	}
	return rec.Code, ""
}

// A finished job's status stays readable for the newest 4 096 terminal jobs
// and its trace for the newest 256; past them the 404s say which expired,
// and an ID never issued stays not_found.
func TestJobExpiryKinds(t *testing.T) {
	const total = 4096 + 1000
	srv, _ := newTestServer(t, func(c *Config) {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
		c.Sched.Observe = true
	})
	s := srv.Scheduler()
	for i := 0; i < total; i++ {
		for {
			_, err := s.Submit(sched.JobSpec{N: 8, Shape: "square-corner", Speeds: []float64{1, 2, 0.9}, Seed: int64(i)})
			if err == nil {
				break
			}
			var qf *sched.QueueFullError
			if !errors.As(err, &qf) {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(time.Millisecond) {
		if m := s.Metrics(); m.Counters.Done+m.Counters.Failed == total {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs finished", m.Counters.Done+m.Counters.Failed, total)
		}
	}

	h := srv.Handler()
	kept := fmt.Sprintf("j-%06d", total-1000) // among the newest 4 096, not the newest 256
	for _, c := range []struct {
		path string
		code int
		kind string
	}{
		{"/jobs/j-000001", http.StatusNotFound, "job_expired"},
		{"/jobs/j-000001/trace", http.StatusNotFound, "job_expired"},
		{"/jobs/" + kept, http.StatusOK, ""},
		{"/jobs/" + kept + "/trace", http.StatusNotFound, "trace_expired"},
		{fmt.Sprintf("/jobs/j-%06d/trace", total), http.StatusOK, ""},
		{fmt.Sprintf("/jobs/j-%06d", total+1), http.StatusNotFound, "not_found"},
		{fmt.Sprintf("/jobs/j-%06d/trace", total+1), http.StatusNotFound, "not_found"},
		{"/jobs/nonsense", http.StatusNotFound, "not_found"},
	} {
		if code, kind := getKind(t, h, c.path); code != c.code || kind != c.kind {
			t.Errorf("GET %s = %d %q, want %d %q", c.path, code, kind, c.code, c.kind)
		}
	}
}

// Tenant names come from clients: past slo.MaxLabels of them, the SLO
// families fold the rest into tenant="other".
func TestTenantLabelsFolded(t *testing.T) {
	reg := metrics.New()
	m := newMetricsRegistry(reg, metrics.NewEventLog(8), nil)
	now := time.Now()
	for i := 0; i < 10_000; i++ {
		m.observe(sched.JobView{
			ID:         fmt.Sprintf("j-%06d", i+1),
			Spec:       sched.JobSpec{Tenant: fmt.Sprintf("tenant-%d", i)},
			EnqueuedAt: now,
			FinishedAt: now.Add(time.Millisecond),
		}, "inproc")
	}
	for _, f := range reg.Gather() {
		if f.Name != slo.RequestsFamily && f.Name != slo.LatencyFamily {
			continue
		}
		if len(f.Series) > slo.MaxLabels+1 {
			t.Errorf("%s has %d children, want at most %d", f.Name, len(f.Series), slo.MaxLabels+1)
		}
		first, last := f.Series[0].LabelValues[0], f.Series[len(f.Series)-1].LabelValues[0]
		if first != "other" || last != "tenant-9" {
			t.Errorf("%s tenants run %q … %q, want the first %d and \"other\"", f.Name, first, last, slo.MaxLabels)
		}
	}
}

// SLO classes come from clients too: past slo.MaxLabels of them, the SLO
// families fold the rest into class="other", and a class with a configured
// objective keeps its own label however late it first appears.
func TestClassLabelsFolded(t *testing.T) {
	reg := metrics.New()
	m := newMetricsRegistry(reg, metrics.NewEventLog(8), []slo.Objective{{Class: "batch", Availability: 0.99}})
	now := time.Now()
	for i, class := range append(make([]string, 10_000), "batch") {
		if class == "" {
			class = fmt.Sprintf("class-%d", i)
		}
		m.observe(sched.JobView{
			ID:         fmt.Sprintf("j-%06d", i+1),
			Spec:       sched.JobSpec{Class: class},
			EnqueuedAt: now,
			FinishedAt: now.Add(time.Millisecond),
		}, "inproc")
	}
	for _, f := range reg.Gather() {
		if f.Name != slo.RequestsFamily && f.Name != slo.LatencyFamily {
			continue
		}
		if len(f.Series) > slo.MaxLabels+1 {
			t.Errorf("%s has %d children, want at most %d", f.Name, len(f.Series), slo.MaxLabels+1)
		}
		classes := map[string]bool{}
		for _, sr := range f.Series {
			classes[sr.LabelValues[1]] = true
		}
		if !classes["batch"] || !classes["other"] || !classes["class-0"] || classes[fmt.Sprintf("class-%d", slo.MaxLabels)] {
			t.Errorf("%s classes %v: want batch, other and the first client classes only", f.Name, classes)
		}
	}
}
