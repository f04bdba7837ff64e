package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/slo"
)

// expiredInstance is an instance that accepts every job as j-000001 and,
// asked for it later, answers that it no longer keeps it.
type expiredInstance struct{ submits atomic.Int32 }

func (e *expiredInstance) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case req.URL.Path == "/healthz":
		json.NewEncoder(w).Encode(serve.HealthStatus{Status: "ok"})
	case req.Method == http.MethodPost && req.URL.Path == "/jobs":
		e.submits.Add(1)
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.SubmitResponse{ID: "j-000001", State: "queued", Location: "/jobs/j-000001"})
	default:
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]*serve.ErrorDTO{"error": {Kind: "job_expired", Message: "gone"}})
	}
}

// routerGet GETs path from the router's handler and returns the status
// code and, for an error body, its kind.
func routerGet(t *testing.T, r *Router, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var e struct {
		Error *serve.ErrorDTO `json:"error"`
	}
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == nil {
			t.Fatalf("GET %s = %d with body %q", path, rec.Code, rec.Body)
		}
		return rec.Code, e.Error.Kind
	}
	return rec.Code, ""
}

// routerSubmit POSTs body to the router's handler.
func routerSubmit(r *Router, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	return rec
}

// An instance's job_expired is an answer, not a lost job: the router passes
// it through and submits the job nowhere else, or it would run twice.
func TestRouterPassesJobExpiredThrough(t *testing.T) {
	a, b := &expiredInstance{}, &expiredInstance{}
	rt, err := New(Config{
		Backends:      []*Backend{NewLocalBackend("a", a), NewLocalBackend("b", b)},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rec := routerSubmit(rt, `{"n":16}`); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body)
	}
	for _, path := range []string{"/jobs/r-000001", "/jobs/r-000001/trace"} {
		if code, kind := routerGet(t, rt, path); code != http.StatusNotFound || kind != "job_expired" {
			t.Errorf("GET %s = %d %q, want 404 job_expired", path, code, kind)
		}
	}
	if n := a.submits.Load() + b.submits.Load(); n != 1 {
		t.Errorf("instances saw %d submissions, want 1", n)
	}
}

// Once the router has proxied a terminal status, the record drops the
// request body it kept for failover.
func TestRouterTerminalRecordDropsBody(t *testing.T) {
	cl := newCluster(t, 1, nil, nil)
	_, acc, _ := cl.submit(t, `{"n":16,"shape":"square-corner","speeds":[1,2,0.9]}`)
	rec, _ := cl.router.lookup(acc.ID)
	rec.mu.Lock()
	held := rec.body != nil
	rec.mu.Unlock()
	if !held {
		t.Fatal("a live job's record has no body to replay")
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, st := cl.status(t, acc.ID); st.State == "done" {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("job still %s", st.State)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.body != nil {
		t.Errorf("terminal record keeps a %d-byte body", len(rec.body))
	}
}

// 2·10⁴ jobs of as many tenants through router → serve in process leave the
// router at maxJobRecords records and every tenant-labelled family at
// slo.MaxLabels + 1 children; the oldest router ID answers
// job_expired.
func TestRouterJobRecordsBounded(t *testing.T) {
	const total = 20_000
	cl := newCluster(t, 1, nil, func(_ int, c *serve.Config) { c.Sched.Observe = false })
	rt := cl.router
	for i := 0; i < total; i++ {
		body := fmt.Sprintf(`{"n":8,"shape":"square-corner","speeds":[1,2,0.9],"tenant":"t%d"}`, i)
		for {
			rec := routerSubmit(rt, body)
			if rec.Code == http.StatusAccepted {
				break
			}
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("submit %d = %d: %s", i, rec.Code, rec.Body)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	rt.mu.Lock()
	n := len(rt.jobs)
	rt.mu.Unlock()
	if n != maxJobRecords {
		t.Errorf("router keeps %d job records, want %d", n, maxJobRecords)
	}
	if code, kind := routerGet(t, rt, "/jobs/r-000001"); code != http.StatusNotFound || kind != "job_expired" {
		t.Errorf("oldest job = %d %q, want 404 job_expired", code, kind)
	}
	if code, kind := routerGet(t, rt, fmt.Sprintf("/jobs/r-%06d", total+1)); code != http.StatusNotFound || kind != "not_found" {
		t.Errorf("unissued job = %d %q, want 404 not_found", code, kind)
	}
	newest := fmt.Sprintf("/jobs/r-%06d", total)
	if code, kind := routerGet(t, rt, newest); code != http.StatusOK {
		t.Errorf("newest job = %d %q, want 200", code, kind)
	}

	for _, f := range rt.metrics.reg.Gather() {
		if f.Name == "summagen_router_admitted_total" && len(f.Series) > slo.MaxLabels+1 {
			t.Errorf("%s has %d children, want at most %d", f.Name, len(f.Series), slo.MaxLabels+1)
		}
	}
}
