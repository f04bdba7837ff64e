// Package router is the cluster front-end over N summagen-serve scheduler
// instances: the layer that routes *between* instances while each
// instance's scheduler plans *within* — the two-level structure the
// hierarchical-SUMMA literature motivates for the serving plane.
//
//	POST /jobs        route a submission to an instance (see Policy)
//	GET  /jobs/{id}   proxy job status; on instance death, re-route
//	GET  /jobs/{id}/trace  proxy the merged Chrome trace from the instance
//	GET  /metrics     merged exposition: every instance's families labeled
//	                  instance="...", plus summagen_router_* / summagen_fleet_*
//	GET  /healthz     fleet health with per-instance depth
//
// Placement is plan-key affinity via rendezvous hashing that steps past
// draining, sick and overloaded instances (Policy). Edge admission
// is a per-tenant token bucket returning the scheduler's QueueFullError
// semantics (429 + Retry-After). Failover is bounded re-routing: a job
// whose instance dies is re-submitted to a healthy instance — jobs are
// deterministic (seeded inputs, digest-stable plans), so the re-run
// completes with the fault-free digest.
package router

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
)

// Config parameterizes a Router.
type Config struct {
	// Backends are the scheduler instances (required, unique IDs).
	Backends []*Backend
	// Policy has no effect: the router has one placement rule (see
	// Policy). The field stays so callers that set it still build.
	Policy Policy
	// MaxReroutes bounds failover re-submissions per job (default 3).
	MaxReroutes int
	// TenantRate enables edge admission: tokens/second granted per tenant
	// (0 disables the limiter entirely).
	TenantRate float64
	// TenantBurst is the bucket capacity (default 8).
	TenantBurst int
	// ProbeInterval is the background health-probe period (default 500ms;
	// negative disables the prober — tests drive ProbeAll directly). Each
	// backend is probed on its own ticker with a deterministic per-ID
	// jitter added to the period, so a fleet of instances is never probed
	// in lockstep — synchronized probes hit every instance at the same
	// instant and make one shared stall look like a fleet-wide one.
	ProbeInterval time.Duration
	// SlowProbe is the probe-duration threshold above which a probe
	// counts as slow; two consecutive slow probes mark the backend
	// Suspect (default 250ms — see Backend.SlowProbe).
	SlowProbe time.Duration
	// Logger receives routing decisions and failover events; nil discards.
	Logger *slog.Logger

	// SampleInterval is the router's own metrics-sampler period (default
	// 10s; negative disables the background sampler — tests tick manually).
	SampleInterval time.Duration
	// FairnessWindow is the rate window behind summagen_fairness_jain
	// (default 60s).
	FairnessWindow time.Duration
	// TenantClasses maps a tenant to the SLO class stamped on its
	// submissions (X-SLO-Class header) when the body does not name one.
	TenantClasses map[string]string
}

// Router fans jobs out to scheduler instances and aggregates their
// status, metrics, and health.
type Router struct {
	backends      []*Backend
	maxReroutes   int
	buckets       *tenantBuckets
	log           *slog.Logger
	mux           *http.ServeMux
	metrics       *routerMetrics
	sampler       *metrics.Sampler
	tenantClasses map[string]string

	// jobs holds the records of the newest maxJobRecords × len(backends)
	// submissions. IDs are issued in sequence and evicted oldest first, so
	// jobs always holds the IDs r-(nextID-len(jobs)+1) … r-(nextID).
	mu     sync.Mutex
	jobs   map[string]*jobRecord
	nextID int

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
}

// jobRecord tracks one routed job across failovers. The record's own mutex
// single-flights re-routing: concurrent pollers of a dead instance's job
// must trigger exactly one re-submission.
type jobRecord struct {
	id string

	mu         sync.Mutex
	backend    *Backend
	localID    string
	body       []byte // original submit body, replayed on failover; nil once terminal
	planKey    string
	class      string // SLO class forwarded as X-SLO-Class, replayed too
	reroutes   int
	lastStatus *serve.JobStatus // last successfully proxied status
}

// maxJobRecords bounds the router's job records per backend. Past
// maxJobRecords × len(backends), each submission evicts the oldest record;
// its ID then answers 404 "job_expired", as the instance does once its own
// history (sched's maxTerminalJobs, the same 4 096) has dropped the job.
const maxJobRecords = 4096

// New builds a router, probes every backend once so initial health and
// load are known, and starts the background prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: Config.Backends is required")
	}
	seen := map[string]bool{}
	for _, b := range cfg.Backends {
		if b.ID == "" || seen[b.ID] {
			return nil, fmt.Errorf("router: backend IDs must be unique and non-empty (got %q)", b.ID)
		}
		seen[b.ID] = true
		if cfg.SlowProbe > 0 {
			b.SlowProbe = cfg.SlowProbe
		}
	}
	sampleInterval := cfg.SampleInterval
	if sampleInterval == 0 {
		sampleInterval = 10 * time.Second
	}
	storeInterval := sampleInterval
	if storeInterval < 0 {
		storeInterval = 10 * time.Second
	}
	fairnessWindow := cfg.FairnessWindow
	if fairnessWindow <= 0 {
		fairnessWindow = time.Minute
	}
	r := &Router{
		backends:      cfg.Backends,
		maxReroutes:   cfg.MaxReroutes,
		log:           cfg.Logger,
		jobs:          map[string]*jobRecord{},
		metrics:       newRouterMetrics(cfg.Backends, fairnessWindow, storeInterval),
		tenantClasses: cfg.TenantClasses,
		stopProbe:     make(chan struct{}),
	}
	r.sampler = metrics.NewSampler(r.metrics.reg, r.metrics.store, storeInterval, nil)
	if r.maxReroutes <= 0 {
		r.maxReroutes = 3
	}
	if cfg.TenantRate > 0 {
		burst := cfg.TenantBurst
		if burst <= 0 {
			burst = 8
		}
		r.buckets = newTenantBuckets(cfg.TenantRate, burst)
	}
	if r.log == nil {
		r.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /jobs", r.handleSubmit)
	r.mux.HandleFunc("GET /jobs/{id}", r.handleStatus)
	r.mux.HandleFunc("GET /jobs/{id}/trace", r.handleTrace)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.HandleFunc("GET /slo", r.handleSLO)
	r.mux.HandleFunc("GET /debug/flightrecorder", r.handleFlightRecorder)
	if sampleInterval > 0 {
		r.sampler.Start()
	}

	r.ProbeAll()
	interval := cfg.ProbeInterval
	if interval == 0 {
		interval = 500 * time.Millisecond
	}
	if interval > 0 {
		for _, b := range r.backends {
			r.probeWG.Add(1)
			go func(b *Backend) {
				defer r.probeWG.Done()
				// Deterministic per-backend jitter (up to a quarter
				// period, derived from the ID) desynchronizes the fleet's
				// probe schedule.
				jitter := time.Duration(rendezvousWeight("probe-jitter", b.ID) % uint64(interval/4+1))
				t := time.NewTicker(interval + jitter)
				defer t.Stop()
				for {
					select {
					case <-t.C:
						_ = b.Probe() //nolint:errcheck // unhealthiness is recorded on the backend
					case <-r.stopProbe:
						return
					}
				}
			}(b)
		}
	}
	return r, nil
}

// Handler returns the root handler for an http.Server.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the background prober and the metrics sampler. It does not
// touch the backends.
func (r *Router) Close() {
	select {
	case <-r.stopProbe:
	default:
		close(r.stopProbe)
	}
	r.probeWG.Wait()
	r.sampler.Stop()
}

// sampleNow forces one sampler tick — deterministic-time hook for tests
// running with SampleInterval < 0.
func (r *Router) sampleNow() { r.sampler.Tick(time.Now()) }

// ProbeAll health-probes every backend concurrently and returns how many
// are healthy.
func (r *Router) ProbeAll() int {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			_ = b.Probe() //nolint:errcheck // unhealthiness is recorded on the backend
		}(b)
	}
	wg.Wait()
	n := 0
	for _, b := range r.backends {
		if b.Healthy() {
			n++
		}
	}
	return n
}

// healthyBackends snapshots the currently healthy backends, minus any
// excluded IDs, in registration order.
func (r *Router) healthyBackends(exclude map[string]bool) []*Backend {
	var out []*Backend
	for _, b := range r.backends {
		if b.Healthy() && !exclude[b.ID] {
			out = append(out, b)
		}
	}
	return out
}

// RouterSubmitResponse is the router's 202 body: the cluster-scoped job ID
// plus which instance took the job.
type RouterSubmitResponse struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Location string `json:"location"`
	Instance string `json:"instance"`
}

// RouterJobStatus wraps an instance's job status with cluster routing
// facts.
type RouterJobStatus struct {
	serve.JobStatus
	// Instance currently owns the job.
	Instance string `json:"instance"`
	// Reroutes counts failover re-submissions this job went through.
	Reroutes int `json:"reroutes,omitempty"`
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest,
			&serve.ErrorDTO{Kind: "bad_request", Message: "reading body: " + err.Error()})
		return
	}
	// Decode leniently for the routing facts (tenant, plan key); full
	// validation is the instance's job and its 400s proxy back verbatim.
	var sub serve.SubmitRequest
	_ = json.Unmarshal(body, &sub) //nolint:errcheck // undecodable bodies route anywhere and get the instance's 400
	// The tenant's configured SLO class rides on the X-SLO-Class header so
	// the body is forwarded byte-identical; a class already in the body
	// wins (the instance prefers it).
	class := ""
	if sub.Class == "" {
		class = r.tenantClasses[sub.Tenant]
	}
	if r.buckets != nil {
		if ok, retryAfter := r.buckets.take(sub.Tenant, time.Now()); !ok {
			r.metrics.rejected.With("rate_limit").Inc()
			qf := &sched.QueueFullError{Tenant: sub.Tenant, Cap: int(r.buckets.burst)}
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retryAfter.Seconds()+1)))
			writeError(w, http.StatusTooManyRequests,
				&serve.ErrorDTO{Kind: "queue_full", Message: "router: " + qf.Error() + " (edge rate limit)"})
			return
		}
	}
	planKey := sched.PlanKey(sched.JobSpec{
		Tenant: sub.Tenant, N: sub.N, Shape: sub.Shape,
		Speeds: sub.Speeds, UseFPM: sub.UseFPM, Seed: sub.Seed, Verify: sub.Verify,
	})

	backend, resp, derr := r.placeJob(planKey, class, body, nil)
	if derr != nil {
		writeError(w, http.StatusServiceUnavailable, derr)
		return
	}
	if resp.status != http.StatusAccepted {
		// Typed instance rejection (400/413/429/503): proxy it verbatim,
		// including backoff guidance.
		r.metrics.rejected.With("upstream").Inc()
		if resp.retryAfter != "" {
			w.Header().Set("Retry-After", resp.retryAfter)
		}
		proxyRaw(w, resp)
		return
	}
	var accepted serve.SubmitResponse
	if err := json.Unmarshal(resp.body, &accepted); err != nil {
		writeError(w, http.StatusBadGateway,
			&serve.ErrorDTO{Kind: "internal", Message: fmt.Sprintf("router: instance %s returned unparsable submit response: %v", backend.ID, err)})
		return
	}

	r.mu.Lock()
	r.nextID++
	rec := &jobRecord{
		id:      routerJobID(r.nextID),
		backend: backend,
		localID: accepted.ID,
		body:    body,
		planKey: planKey,
		class:   class,
	}
	r.jobs[rec.id] = rec
	if len(r.jobs) > maxJobRecords*len(r.backends) {
		delete(r.jobs, routerJobID(r.nextID-len(r.jobs)+1))
	}
	r.mu.Unlock()
	r.metrics.admit(sub.Tenant)

	r.log.Info("routed", "job", rec.id, "instance", backend.ID, "local_id", accepted.ID,
		"tenant", sub.Tenant)
	loc := "/jobs/" + rec.id
	w.Header().Set("Location", loc)
	writeJSON(w, http.StatusAccepted, RouterSubmitResponse{
		ID: rec.id, State: accepted.State, Location: loc, Instance: backend.ID,
	})
}

// placeJob picks an instance for a (planKey, body) submission and POSTs
// it, failing over across instances on connection errors until none are
// left. It returns a typed no-healthy-instance error when the fleet cannot
// take the job.
func (r *Router) placeJob(planKey, class string, body []byte, exclude map[string]bool) (*Backend, *backendResponse, *serve.ErrorDTO) {
	if exclude == nil {
		exclude = map[string]bool{}
	}
	var hdr http.Header
	if class != "" {
		hdr = http.Header{"X-Slo-Class": []string{class}}
	}
	for {
		healthy := r.healthyBackends(exclude)
		if len(healthy) == 0 {
			r.metrics.rejected.With("no_backend").Inc()
			return nil, nil, &serve.ErrorDTO{
				Kind:    "no_healthy_instance",
				Message: fmt.Sprintf("router: no healthy instance (fleet size %d)", len(r.backends)),
			}
		}
		b := Policy{}.Pick(planKey, healthy)
		resp, err := b.do(http.MethodPost, "/jobs", body, hdr)
		if err != nil {
			// Connection-level death: attribute it, fence the instance off,
			// and fall through to the next choice (the key's rendezvous
			// runner-up).
			r.metrics.proxyErrors.With(b.ID).Inc()
			r.log.Warn("instance unreachable on submit, failing over", "instance", b.ID, "err", err)
			exclude[b.ID] = true
			continue
		}
		if resp.status == http.StatusAccepted {
			r.metrics.routed.With(b.ID, policyName).Inc()
		}
		return b, resp, nil
	}
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	rec, derr := r.lookup(req.PathValue("id"))
	if derr != nil {
		writeError(w, http.StatusNotFound, derr)
		return
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()

	resp, err := rec.backend.do(http.MethodGet, "/jobs/"+rec.localID, nil, nil)
	if err == nil && resp.status == http.StatusOK {
		var st serve.JobStatus
		if jerr := json.Unmarshal(resp.body, &st); jerr != nil {
			writeError(w, http.StatusBadGateway,
				&serve.ErrorDTO{Kind: "internal", Message: fmt.Sprintf("router: instance %s status decode: %v", rec.backend.ID, jerr)})
			return
		}
		rec.lastStatus = &st
		if terminal(st) {
			rec.body = nil // a finished job is never replayed
		}
		writeJSON(w, http.StatusOK, r.clusterStatus(rec, st))
		return
	}
	if err == nil && (resp.status != http.StatusNotFound || errorKindOf(resp) == "job_expired") {
		// Unexpected instance answer (500 etc.), or a job the instance
		// finished long ago and no longer keeps: proxy verbatim. An expired
		// job must not re-route, or it would run a second time.
		proxyRaw(w, resp)
		return
	}

	// The instance is dead (connection error) or has forgotten the job
	// (restarted: status 404 for an ID we placed there). A finished job's
	// last proxied status outlives its instance; anything else re-routes.
	if err != nil {
		r.metrics.proxyErrors.With(rec.backend.ID).Inc()
	}
	if rec.lastStatus != nil && terminal(*rec.lastStatus) {
		writeJSON(w, http.StatusOK, r.clusterStatus(rec, *rec.lastStatus))
		return
	}
	r.rerouteLocked(w, rec, err)
}

// rerouteLocked re-submits a job lost with its instance to a healthy one,
// preserving the cluster job ID. Callers hold rec.mu.
func (r *Router) rerouteLocked(w http.ResponseWriter, rec *jobRecord, cause error) {
	dead := rec.backend
	if rec.reroutes >= r.maxReroutes {
		writeError(w, http.StatusBadGateway, &serve.ErrorDTO{
			Kind: "instance_lost",
			Message: fmt.Sprintf("router: job %s lost with instance %s after %d reroutes (last error: %v)",
				rec.id, dead.ID, rec.reroutes, cause),
		})
		return
	}
	backend, resp, derr := r.placeJob(rec.planKey, rec.class, rec.body, map[string]bool{dead.ID: true})
	if derr != nil {
		writeError(w, http.StatusServiceUnavailable, derr)
		return
	}
	if resp.status != http.StatusAccepted {
		writeError(w, http.StatusBadGateway, &serve.ErrorDTO{
			Kind: "instance_lost",
			Message: fmt.Sprintf("router: job %s lost with instance %s; re-route to %s rejected with %d: %s",
				rec.id, dead.ID, backend.ID, resp.status, resp.body),
		})
		return
	}
	var accepted serve.SubmitResponse
	if err := json.Unmarshal(resp.body, &accepted); err != nil {
		writeError(w, http.StatusBadGateway,
			&serve.ErrorDTO{Kind: "internal", Message: fmt.Sprintf("router: instance %s returned unparsable submit response: %v", backend.ID, err)})
		return
	}
	rec.reroutes++
	rec.backend = backend
	rec.localID = accepted.ID
	r.metrics.reroutes.With(dead.ID).Inc()
	r.metrics.events.Add("reroute", "job %s re-routed %s -> %s (reroutes=%d): %v",
		rec.id, dead.ID, backend.ID, rec.reroutes, cause)
	r.log.Warn("re-routed job after instance loss",
		"job", rec.id, "from", dead.ID, "to", backend.ID, "reroutes", rec.reroutes, "cause", cause)
	writeJSON(w, http.StatusOK, RouterJobStatus{
		JobStatus: serve.JobStatus{ID: rec.id, State: accepted.State, EnqueuedAt: time.Now()},
		Instance:  backend.ID,
		Reroutes:  rec.reroutes,
	})
}

// terminal reports whether an instance status is final.
func terminal(st serve.JobStatus) bool { return st.State == "done" || st.State == "failed" }

// errorKindOf reads the typed error kind of an instance's error response
// ("" when the body is not one).
func errorKindOf(resp *backendResponse) string {
	var e struct {
		Error *serve.ErrorDTO `json:"error"`
	}
	if json.Unmarshal(resp.body, &e) != nil || e.Error == nil {
		return ""
	}
	return e.Error.Kind
}

// clusterStatus rewrites an instance-scoped status into the cluster view.
func (r *Router) clusterStatus(rec *jobRecord, st serve.JobStatus) RouterJobStatus {
	st.ID = rec.id
	return RouterJobStatus{JobStatus: st, Instance: rec.backend.ID, Reroutes: rec.reroutes}
}

func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	rec, derr := r.lookup(req.PathValue("id"))
	if derr != nil {
		writeError(w, http.StatusNotFound, derr)
		return
	}
	rec.mu.Lock()
	backend, localID := rec.backend, rec.localID
	rec.mu.Unlock()
	path := "/jobs/" + localID + "/trace"
	if q := req.URL.RawQuery; q != "" {
		path += "?" + q
	}
	resp, err := backend.do(http.MethodGet, path, nil, nil)
	if err != nil {
		r.metrics.proxyErrors.With(backend.ID).Inc()
		writeError(w, http.StatusBadGateway, &serve.ErrorDTO{
			Kind:    "instance_lost",
			Message: fmt.Sprintf("router: trace for %s unavailable: instance %s unreachable: %v", rec.id, backend.ID, err),
		})
		return
	}
	proxyRaw(w, resp)
}

// FleetInstance is one instance's row in the fleet health view.
type FleetInstance struct {
	ID         string `json:"id"`
	Healthy    bool   `json:"healthy"`
	QueueDepth int    `json:"queue_depth"`
	InFlight   int    `json:"inflight"`
	QueueCap   int    `json:"queue_cap"`
	Draining   bool   `json:"draining"`
	// Suspect flags an instance whose last two health probes were both
	// slow (gray at the fleet level: up, but answering sluggishly).
	Suspect bool `json:"suspect,omitempty"`
	// GrayHot flags an instance whose gray-recovery counter rose within
	// the last few probes — its ranks keep going sick.
	GrayHot bool `json:"gray_hot,omitempty"`
	// SLOFiring counts burn-rate alerts currently firing on the instance
	// (from its /healthz); Policy ranks it as sick while > 0.
	SLOFiring int `json:"slo_firing,omitempty"`
}

// FleetHealth is the router's /healthz body.
type FleetHealth struct {
	// Status is "ok" (all healthy), "degraded" (some), or "down" (none).
	Status    string          `json:"status"`
	Policy    string          `json:"policy"`
	Instances []FleetInstance `json:"instances"`
	// Fleet-wide sums over healthy instances.
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"inflight"`
	SLOFiring  int `json:"slo_firing"`
	Healthy    int `json:"healthy"`
	Total      int `json:"total"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	r.ProbeAll() // serve fresh depth, and let recovered instances rejoin
	fh := FleetHealth{Policy: policyName, Total: len(r.backends)}
	for _, b := range r.backends {
		ls := b.Load()
		inst := FleetInstance{
			ID: b.ID, Healthy: b.Healthy(),
			QueueDepth: ls.QueueDepth, InFlight: ls.InFlight,
			QueueCap: ls.QueueCap, Draining: ls.Draining,
			Suspect: b.Suspect(), GrayHot: b.GrayHot(),
			SLOFiring: ls.SLOFiring,
		}
		if inst.Healthy {
			fh.Healthy++
			fh.QueueDepth += ls.QueueDepth
			fh.InFlight += ls.InFlight
			fh.SLOFiring += ls.SLOFiring
		}
		fh.Instances = append(fh.Instances, inst)
	}
	switch {
	case fh.Healthy == fh.Total:
		fh.Status = "ok"
	case fh.Healthy > 0:
		fh.Status = "degraded"
	default:
		fh.Status = "down"
	}
	writeJSON(w, http.StatusOK, fh)
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Scrape every healthy instance; a dead one contributes only its up=0
	// gauge. Each instance's families gain instance="..." labels, then
	// merge with the router's own families through the shared exposition
	// writer — one TYPE line per family fleet-wide.
	var parts [][]metrics.TextFamily
	for i, res := range r.fleetGet("/metrics") {
		b := r.backends[i]
		if res.err != "" {
			if res.err != instanceDown {
				r.metrics.proxyErrors.With(b.ID).Inc()
			}
			continue
		}
		fams := metrics.ParseText(string(res.body))
		for fi, f := range fams {
			for si, s := range f.Samples {
				fams[fi].Samples[si] = metrics.InjectLabel(s, "instance", b.ID)
			}
		}
		parts = append(parts, fams)
	}
	parts = append(parts, metrics.ToText(r.metrics.reg.Gather()))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.RenderText(w, metrics.MergeText(parts...))
}

// instanceDown is fleetGet's error for a backend it did not ask because
// the last probe found it unhealthy.
const instanceDown = "instance down"

// fleetAnswer is one backend's answer to a fleet-wide GET: its 200 body,
// or why there is none.
type fleetAnswer struct {
	body []byte
	err  string
}

// fleetGet GETs path from every healthy backend concurrently and returns
// the answers in registration order; an unhealthy backend's answer is the
// instanceDown error.
func (r *Router) fleetGet(path string) []fleetAnswer {
	out := make([]fleetAnswer, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		if !b.Healthy() {
			out[i].err = instanceDown
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := b.do(http.MethodGet, path, nil, nil)
			switch {
			case err != nil:
				out[i].err = err.Error()
			case resp.status != http.StatusOK:
				out[i].err = fmt.Sprintf("GET %s returned %d", path, resp.status)
			default:
				out[i].body = resp.body
			}
		}()
	}
	wg.Wait()
	return out
}

// FleetSLO is the router's /slo body: every instance's own SLO report
// fetched live, plus the fleet's firing-alert total from the last probes.
type FleetSLO struct {
	GeneratedAt time.Time     `json:"generated_at"`
	Firing      int           `json:"firing"`
	Instances   []InstanceSLO `json:"instances"`
}

// InstanceSLO is one instance's SLO report, or why it is missing.
type InstanceSLO struct {
	Instance string          `json:"instance"`
	Error    string          `json:"error,omitempty"`
	Report   json.RawMessage `json:"report,omitempty"`
}

func (r *Router) handleSLO(w http.ResponseWriter, _ *http.Request) {
	answers := r.fleetGet("/slo")
	reports := make([]InstanceSLO, len(answers))
	for i, a := range answers {
		reports[i] = InstanceSLO{Instance: r.backends[i].ID, Error: a.err, Report: a.body}
	}
	_, _, firing := fleetLoad(r.backends)
	writeJSON(w, http.StatusOK, FleetSLO{
		GeneratedAt: time.Now(), Firing: firing, Instances: reports,
	})
}

// FleetFlightRecord is the router's merged flight record: its own series
// and events (routing, fairness, fleet gauges) plus each instance's full
// record, fetched live — one blob that replays the fleet's last minutes.
type FleetFlightRecord struct {
	GeneratedAt           time.Time              `json:"generated_at"`
	WindowSeconds         float64                `json:"window_seconds"`
	SampleIntervalSeconds float64                `json:"sample_interval_seconds"`
	Series                []metrics.SeriesDump   `json:"series"`
	Events                []metrics.Event        `json:"events"`
	Instances             []InstanceFlightRecord `json:"instances"`
}

// InstanceFlightRecord is one instance's flight record, or why it is
// missing.
type InstanceFlightRecord struct {
	Instance string          `json:"instance"`
	Error    string          `json:"error,omitempty"`
	Record   json.RawMessage `json:"record,omitempty"`
}

func (r *Router) handleFlightRecorder(w http.ResponseWriter, req *http.Request) {
	now := time.Now()
	window := time.Duration(r.metrics.store.WindowSeconds() * float64(time.Second))
	path := "/debug/flightrecorder"
	if q := req.URL.Query().Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, &serve.ErrorDTO{
				Kind: "bad_request", Message: fmt.Sprintf("invalid window %q (want a positive Go duration)", q)})
			return
		}
		if d < window {
			window = d
		}
		path += "?window=" + url.QueryEscape(q)
	}
	answers := r.fleetGet(path)
	records := make([]InstanceFlightRecord, len(answers))
	for i, a := range answers {
		records[i] = InstanceFlightRecord{Instance: r.backends[i].ID, Error: a.err, Record: a.body}
	}
	writeJSON(w, http.StatusOK, FleetFlightRecord{
		GeneratedAt:           now,
		WindowSeconds:         window.Seconds(),
		SampleIntervalSeconds: r.metrics.store.Interval().Seconds(),
		Series:                r.metrics.store.Dump(window, now),
		Events:                r.metrics.events.Snapshot(),
		Instances:             records,
	})
}

// lookup returns a job's record, or the 404 body for an ID the router
// evicted ("job_expired") or never issued ("not_found").
func (r *Router) lookup(id string) (*jobRecord, *serve.ErrorDTO) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec, ok := r.jobs[id]; ok {
		return rec, nil
	}
	var seq int
	if _, err := fmt.Sscanf(id, "r-%d", &seq); err == nil && seq >= 1 && seq <= r.nextID && routerJobID(seq) == id {
		return nil, &serve.ErrorDTO{Kind: "job_expired", Message: fmt.Sprintf("job %q expired: the router no longer keeps it", id)}
	}
	return nil, &serve.ErrorDTO{Kind: "not_found", Message: fmt.Sprintf("unknown job %q", id)}
}

// routerJobID formats the router's seq-th job ID.
func routerJobID(seq int) string { return fmt.Sprintf("r-%06d", seq) }

func proxyRaw(w http.ResponseWriter, resp *backendResponse) {
	if resp.contentType != "" {
		w.Header().Set("Content-Type", resp.contentType)
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body) //nolint:errcheck // client went away
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func writeError(w http.ResponseWriter, status int, e *serve.ErrorDTO) {
	writeJSON(w, status, struct {
		Error *serve.ErrorDTO `json:"error"`
	}{e})
}
