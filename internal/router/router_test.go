package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/serve"
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
		Name:    "router-test",
		Devices: []*device.Device{mk("d0", 1.0), mk("d1", 2.0), mk("d2", 0.9)},
	}
}

// delayRunner defers execution so tests can kill an instance while its job
// is still in flight.
type delayRunner struct {
	d     time.Duration
	inner sched.Runner
}

func (r *delayRunner) Name() string { return r.inner.Name() }

func (r *delayRunner) Run(id string, plan *sched.Plan, a, b, c *matrix.Dense, opts sched.RunOpts) (*core.Report, error) {
	time.Sleep(r.d)
	return r.inner.Run(id, plan, a, b, c, opts)
}

// cluster bundles a router over n in-process serve instances.
type cluster struct {
	router   *Router
	ts       *httptest.Server
	servers  []*serve.Server
	backends []*Backend
}

// newCluster builds n local instances and a router in front of them. The
// background prober is disabled; tests drive ProbeAll explicitly where
// load freshness matters.
func newCluster(t *testing.T, n int, mutR func(*Config), mutS func(i int, c *serve.Config)) *cluster {
	t.Helper()
	cl := &cluster{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("i%d", i)
		scfg := serve.Config{
			InstanceID: id,
			Sched: sched.Config{
				Workers:  2,
				QueueCap: 64,
				Planner:  &sched.Planner{Platform: testPlatform()},
				Runner:   &sched.InprocRunner{},
				Observe:  true,
			},
		}
		if mutS != nil {
			mutS(i, &scfg)
		}
		srv, err := serve.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		cl.servers = append(cl.servers, srv)
		cl.backends = append(cl.backends, NewLocalBackend(id, srv.Handler()))
	}
	rcfg := Config{Backends: cl.backends, ProbeInterval: -1}
	if mutR != nil {
		mutR(&rcfg)
	}
	rt, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.router = rt
	cl.ts = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		cl.ts.Close()
		rt.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i, srv := range cl.servers {
			if cl.backends[i].killed != nil && cl.backends[i].killed.Load() {
				continue // killed instances have no obligation to drain
			}
			if err := srv.Drain(ctx); err != nil {
				t.Errorf("drain %d: %v", i, err)
			}
		}
	})
	return cl
}

func (cl *cluster) submit(t *testing.T, body string) (*http.Response, RouterSubmitResponse, []byte) {
	t.Helper()
	resp, err := http.Post(cl.ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var sub RouterSubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatalf("submit response: %v: %s", err, raw)
		}
	}
	return resp, sub, raw
}

func (cl *cluster) status(t *testing.T, id string) (int, RouterJobStatus) {
	t.Helper()
	resp, err := http.Get(cl.ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var st RouterJobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("status decode: %v: %s", err, raw)
		}
	}
	return resp.StatusCode, st
}

func (cl *cluster) pollTerminal(t *testing.T, id string) RouterJobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, st := cl.status(t, id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return RouterJobStatus{}
}

// TestRouterLeastLoadedPrefersIdle: an instance three jobs deep loses
// every job to an idle one, whichever of them owns the plan key.
func TestRouterLeastLoadedPrefersIdle(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	cl := newCluster(t, 2, nil,
		func(i int, c *serve.Config) {
			if i == 0 {
				c.Sched.Workers = 1
				c.Sched.Runner = &gatedRunner{inner: &sched.InprocRunner{}, release: release}
			}
		})

	// Pile load directly onto i0, bypassing the router.
	for j := 0; j < 3; j++ {
		resp, err := cl.backends[0].do(http.MethodPost, "/jobs", []byte(`{"n": 32}`), nil)
		if err != nil || resp.status != http.StatusAccepted {
			t.Fatalf("preload %d: %v %+v", j, err, resp)
		}
	}
	cl.router.ProbeAll() // refresh the depth signal

	for i := 0; i < 4; i++ {
		resp, sub, raw := cl.submit(t, fmt.Sprintf(`{"n": 48, "seed": %d}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
		}
		if sub.Instance != "i1" {
			t.Fatalf("job %d went to loaded instance %s", i, sub.Instance)
		}
	}
	close(release)
}

// TestRouterDrainingOwnerSpillsKey: an owner that drains while it still
// holds a job loses its plan key to the other instance instead of
// rejecting every new job of the key with 503 draining.
func TestRouterDrainingOwnerSpillsKey(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	defer open()
	cl := newCluster(t, 2, nil, func(_ int, c *serve.Config) {
		c.Sched.Workers = 1
		c.Sched.Runner = &gatedRunner{inner: &sched.InprocRunner{}, release: release}
	})

	resp, first, raw := cl.submit(t, `{"n": 48, "seed": 1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	var owner *Backend
	var ownerSrv *serve.Server
	for i, b := range cl.backends {
		if b.ID == first.Instance {
			owner, ownerSrv = b, cl.servers[i]
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- ownerSrv.Drain(context.Background()) }()
	for deadline := time.Now().Add(10 * time.Second); !owner.Load().Draining; {
		if time.Now().After(deadline) {
			t.Fatalf("owner %s never reported draining", owner.ID)
		}
		time.Sleep(time.Millisecond)
		cl.router.ProbeAll()
	}

	ids := []string{first.ID}
	for i := 0; i < 4; i++ {
		resp, sub, raw := cl.submit(t, fmt.Sprintf(`{"n": 48, "seed": %d}`, i+2))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d of the draining owner's key = %d: %s", i, resp.StatusCode, raw)
		}
		if sub.Instance == owner.ID {
			t.Fatalf("job %d went to draining owner %s", i, owner.ID)
		}
		ids = append(ids, sub.ID)
	}
	open()
	if err := <-drained; err != nil {
		t.Fatalf("drain %s: %v", owner.ID, err)
	}
	for _, id := range ids {
		if st := cl.pollTerminal(t, id); st.State != "done" {
			t.Fatalf("job %s failed: %+v", id, st.Error)
		}
	}
}

// gatedRunner blocks every Run until release closes.
type gatedRunner struct {
	inner   sched.Runner
	release chan struct{}
}

func (g *gatedRunner) Name() string { return g.inner.Name() }

func (g *gatedRunner) Run(id string, plan *sched.Plan, a, b, c *matrix.Dense, opts sched.RunOpts) (*core.Report, error) {
	<-g.release
	return g.inner.Run(id, plan, a, b, c, opts)
}

// TestRouterAffinityRaisesPlanCacheHitRate: one plan key's jobs all land
// on one instance, so the fleet plans the key exactly once.
func TestRouterAffinityRaisesPlanCacheHitRate(t *testing.T) {
	cl := newCluster(t, 2, nil, nil)
	instances := map[string]int{}
	var ids []string
	for i := 0; i < 6; i++ {
		resp, sub, raw := cl.submit(t, fmt.Sprintf(`{"n": 48, "shape": "square-corner", "seed": %d}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
		}
		instances[sub.Instance]++
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		if st := cl.pollTerminal(t, id); st.State != "done" {
			t.Fatalf("job %s failed: %+v", id, st.Error)
		}
	}
	var hits, misses uint64
	for _, srv := range cl.servers {
		m := srv.Scheduler().Metrics()
		hits += m.PlanCacheHits
		misses += m.PlanCacheMisses
	}
	if len(instances) != 1 {
		t.Fatalf("affinity scattered one plan key across instances: %v", instances)
	}
	if misses != 1 {
		t.Fatalf("affinity misses = %d, want exactly 1 (one cold plan): hits=%d", misses, hits)
	}
}

func TestRouterFailoverOnSubmit(t *testing.T) {
	cl := newCluster(t, 2, nil, nil)
	cl.backends[0].Kill()

	for i := 0; i < 3; i++ {
		resp, sub, raw := cl.submit(t, fmt.Sprintf(`{"n": 48, "seed": %d}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit with one dead instance = %d: %s", resp.StatusCode, raw)
		}
		if sub.Instance != "i1" {
			t.Fatalf("job routed to dead instance: %+v", sub)
		}
		if st := cl.pollTerminal(t, sub.ID); st.State != "done" {
			t.Fatalf("job failed: %+v", st.Error)
		}
	}

	cl.backends[1].Kill()
	resp, _, raw := cl.submit(t, `{"n": 48}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with all instances dead = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "no_healthy_instance") {
		t.Fatalf("503 body not typed: %s", raw)
	}
}

// TestRouterKillMidJobReroutesToFaultFreeDigest kills the instance that
// owns an in-flight job; the router must transparently re-submit it to the
// survivor and the job must complete with the digest of a fault-free
// single-instance run.
func TestRouterKillMidJobReroutesToFaultFreeDigest(t *testing.T) {
	const body = `{"n": 64, "shape": "auto", "seed": 7}`

	// Fault-free reference digest from a plain single instance.
	ref := newCluster(t, 1, nil, nil)
	resp, sub, raw := ref.submit(t, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reference submit = %d: %s", resp.StatusCode, raw)
	}
	refSt := ref.pollTerminal(t, sub.ID)
	if refSt.State != "done" || refSt.Digest == "" {
		t.Fatalf("reference job: %+v", refSt)
	}

	cl := newCluster(t, 2, nil,
		func(i int, c *serve.Config) {
			c.Sched.Runner = &delayRunner{d: 300 * time.Millisecond, inner: &sched.InprocRunner{}}
		})
	resp, sub, raw = cl.submit(t, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	owner := sub.Instance
	for _, b := range cl.backends {
		if b.ID == owner {
			b.Kill()
		}
	}

	st := cl.pollTerminal(t, sub.ID)
	if st.State != "done" {
		t.Fatalf("job did not survive instance kill: %+v", st.Error)
	}
	if st.Reroutes < 1 {
		t.Fatalf("job finished without re-routing (reroutes=%d) — kill fired too late", st.Reroutes)
	}
	if st.Instance == owner {
		t.Fatalf("job still attributed to killed instance %s", owner)
	}
	if st.Digest != refSt.Digest {
		t.Fatalf("re-routed digest %s != fault-free %s", st.Digest, refSt.Digest)
	}
	if st.ID != sub.ID {
		t.Fatalf("cluster job ID changed across failover: %s -> %s", sub.ID, st.ID)
	}
}

func TestRouterTenantRateLimit(t *testing.T) {
	cl := newCluster(t, 2, func(c *Config) {
		c.TenantRate = 0.001 // effectively no refill within the test
		c.TenantBurst = 2
	}, nil)

	for i := 0; i < 2; i++ {
		resp, _, raw := cl.submit(t, fmt.Sprintf(`{"n": 48, "seed": %d, "tenant": "greedy"}`, i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, raw)
		}
	}
	resp, _, raw := cl.submit(t, `{"n": 48, "tenant": "greedy"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit = %d: %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive backoff", ra)
	}
	var dto struct {
		Error serve.ErrorDTO `json:"error"`
	}
	if err := json.Unmarshal(raw, &dto); err != nil || dto.Error.Kind != "queue_full" {
		t.Fatalf("429 body not QueueFullError-typed: %s", raw)
	}
	if !strings.Contains(dto.Error.Message, "greedy") {
		t.Fatalf("rejection does not name the tenant: %s", raw)
	}

	// Another tenant is unaffected.
	resp, _, raw = cl.submit(t, `{"n": 48, "tenant": "patient"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d: %s", resp.StatusCode, raw)
	}
}

func TestRouterStatusAndTraceProxy(t *testing.T) {
	cl := newCluster(t, 2, nil, nil)
	resp, sub, raw := cl.submit(t, `{"n": 48, "seed": 3, "verify": true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	if !strings.HasPrefix(sub.ID, "r-") || sub.Location != "/jobs/"+sub.ID || sub.Instance == "" {
		t.Fatalf("submit response not cluster-scoped: %+v", sub)
	}
	st := cl.pollTerminal(t, sub.ID)
	if st.State != "done" || !st.Verified || st.Digest == "" {
		t.Fatalf("job: %+v err=%+v", st, st.Error)
	}
	if st.ID != sub.ID || st.Instance != sub.Instance {
		t.Fatalf("status not rewritten to cluster scope: %+v", st)
	}

	tr, err := http.Get(cl.ts.URL + "/jobs/" + sub.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	trRaw, _ := io.ReadAll(tr.Body)
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d: %s", tr.StatusCode, trRaw)
	}
	var events []map[string]any
	if err := json.Unmarshal(trRaw, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace proxy not a Chrome event array: %v (%d bytes)", err, len(trRaw))
	}

	code, _ := cl.status(t, "r-999999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown cluster job = %d, want 404", code)
	}
}

func TestRouterFleetHealthz(t *testing.T) {
	cl := newCluster(t, 3, nil, nil)
	cl.backends[2].Kill()

	resp, err := http.Get(cl.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fh FleetHealth
	if err := json.NewDecoder(resp.Body).Decode(&fh); err != nil {
		t.Fatal(err)
	}
	if fh.Status != "degraded" || fh.Healthy != 2 || fh.Total != 3 {
		t.Fatalf("fleet health: %+v", fh)
	}
	if len(fh.Instances) != 3 {
		t.Fatalf("instances: %+v", fh.Instances)
	}
	seen := map[string]bool{}
	for _, inst := range fh.Instances {
		seen[inst.ID] = inst.Healthy
	}
	if !seen["i0"] || !seen["i1"] || seen["i2"] {
		t.Fatalf("per-instance health wrong: %v", seen)
	}
}
