// Package serve is the HTTP face of the SummaGen matmul service: a thin,
// typed layer over internal/sched. It validates requests, maps the
// scheduler's typed rejections onto HTTP status codes (queue full → 429,
// draining → 503, bad shape → 400 with the valid names), exposes job
// status with rank-attributed failure detail, and renders Prometheus-style
// metrics including per-shape latency histograms.
//
//	POST /jobs        submit a multiplication   → 202 + job id
//	GET  /jobs/{id}   poll status               → plan, report, digest, error
//	GET  /jobs/{id}/trace  Chrome trace JSON: scheduler/engine spans merged
//	                  with the per-rank timeline (?format=chrome)
//	GET  /metrics     Prometheus text format (incl. summagen_net_* transport
//	                  counters and the comm-volume audit on netmpi)
//	GET  /healthz     liveness + drain state
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slo"
	"repro/internal/trace"
)

// Config parameterizes a Server. Scheduler configuration lives in
// Sched; the server installs its metrics recorder as the OnJobDone hook
// (chaining any hook already present).
type Config struct {
	// Sched configures the scheduler the server owns.
	Sched sched.Config
	// InstanceID names this scheduler instance in a cluster ("" for a
	// standalone server). It is echoed on /healthz so a router can verify
	// it is talking to the instance it registered.
	InstanceID string
	// MaxN caps the accepted matrix dimension (default 4096).
	MaxN int
	// MaxVerifyN caps requests with verify=true, since the serial
	// reference is O(n³) on one core (default 1024).
	MaxVerifyN int
	// Logger receives structured request- and job-level log records with
	// job attribution; nil discards them.
	Logger *slog.Logger

	// SampleInterval is the metrics sampler's scrape period (default 10s).
	// Negative disables the background sampler; ticks can then only be
	// driven manually (tests).
	SampleInterval time.Duration
	// SampleWindow bounds how much series history the time-series store
	// retains (default 30m) — also the flight recorder's maximum replay.
	SampleWindow time.Duration
	// SLOObjectives are the per-class objectives the SLO engine evaluates;
	// empty uses the engine default (class "default", 99.9% availability,
	// 1s latency target).
	SLOObjectives []slo.Objective
	// SLORules overrides the burn-rate alert rules; empty uses the
	// standard fast 5m/1h + slow 30m/6h pairs.
	SLORules []slo.BurnRule
	// SLOClearHold is how many consecutive quiet evaluations clear a
	// firing alert (default 3).
	SLOClearHold int
}

// eventLogSize bounds the flight recorder's recent-events ring.
const eventLogSize = 512

// Server owns a scheduler and serves the HTTP API for it.
type Server struct {
	sched      *sched.Scheduler
	reg        *metrics.Registry
	metrics    *metricsRegistry
	store      *metrics.Store
	sampler    *metrics.Sampler
	events     *metrics.EventLog
	slo        *slo.Engine
	mux        *http.ServeMux
	instanceID string
	maxN       int
	maxVerifyN int
	log        *slog.Logger
}

// New builds the scheduler and its HTTP server.
func New(cfg Config) (*Server, error) {
	s := &Server{
		reg:        metrics.New(),
		events:     metrics.NewEventLog(eventLogSize),
		instanceID: cfg.InstanceID,
		maxN:       cfg.MaxN,
		maxVerifyN: cfg.MaxVerifyN,
		log:        cfg.Logger,
	}
	s.metrics = newMetricsRegistry(s.reg, s.events)
	if s.maxN <= 0 {
		s.maxN = 4096
	}
	if s.maxVerifyN <= 0 {
		s.maxVerifyN = 1024
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}

	schedCfg := cfg.Sched
	runtime := "unknown"
	if schedCfg.Runner != nil {
		runtime = schedCfg.Runner.Name()
	}
	userHook := schedCfg.OnJobDone
	schedCfg.OnJobDone = func(v sched.JobView) {
		s.metrics.observe(v, runtime)
		if v.Err != nil {
			s.log.Error("job failed", "job", v.ID, "tenant", v.Spec.Tenant,
				"n", v.Spec.N, "attempts", v.Attempts, "err", v.Err)
		} else {
			s.log.Info("job done", "job", v.ID, "tenant", v.Spec.Tenant,
				"n", v.Spec.N, "attempts", v.Attempts, "digest", v.Digest,
				"latency", v.FinishedAt.Sub(v.EnqueuedAt))
		}
		if userHook != nil {
			userHook(v)
		}
	}
	var err error
	s.sched, err = sched.New(schedCfg)
	if err != nil {
		return nil, err
	}
	// The snapshot-backed collector families read one cached scheduler
	// snapshot per Gather; refresh it here, now that the scheduler exists.
	s.reg.OnGather(func() { s.metrics.snap = s.sched.Metrics() })

	interval := cfg.SampleInterval
	if interval == 0 {
		interval = 10 * time.Second
	}
	window := cfg.SampleWindow
	if window <= 0 {
		window = 30 * time.Minute
	}
	storeInterval := interval
	if storeInterval < 0 {
		storeInterval = 10 * time.Second
	}
	s.store = metrics.NewStore(window, storeInterval)
	s.slo = slo.New(slo.Config{
		Store:      s.store,
		Objectives: cfg.SLOObjectives,
		Rules:      cfg.SLORules,
		ClearHold:  cfg.SLOClearHold,
		OnTransition: func(tr slo.Transition) {
			kind, verb := "alert_clear", "cleared"
			if tr.Firing {
				kind, verb = "alert_fire", "fired"
			}
			s.events.Add(kind, "%s burn-rate alert %s: tenant=%s class=%s sli=%s",
				tr.Rule, verb, tr.Tenant, tr.Class, tr.SLI)
			s.log.Warn("slo alert transition", "rule", tr.Rule, "firing", tr.Firing,
				"tenant", tr.Tenant, "class", tr.Class, "sli", tr.SLI)
		},
	})
	s.sampler = metrics.NewSampler(s.reg, s.store, storeInterval, s.slo.Tick)
	if interval > 0 {
		s.sampler.Start()
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /slo", s.handleSLO)
	s.mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	return s, nil
}

// Events exposes the flight recorder's event log so process-level actors
// (chaos injection in cmd/summagen-serve) can record into it.
func (s *Server) Events() *metrics.EventLog { return s.events }

// SampleNow forces one sampler tick (and SLO evaluation) immediately —
// deterministic-time hook for tests running with SampleInterval < 0.
func (s *Server) SampleNow() { s.sampler.Tick(time.Now()) }

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Scheduler exposes the owned scheduler (for drain wiring and tests).
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest,
			&ErrorDTO{Kind: "bad_request", Message: "invalid JSON body: " + err.Error()})
		return
	}
	// The SLO class rides either in the body or the X-SLO-Class header
	// (the router's tenant-config path sets the header).
	if req.Class == "" {
		req.Class = r.Header.Get("X-SLO-Class")
	}
	if e := s.validate(&req); e != nil {
		writeError(w, http.StatusBadRequest, e)
		return
	}
	view, err := s.sched.Submit(sched.JobSpec{
		Tenant: req.Tenant,
		N:      req.N,
		Shape:  req.Shape,
		Speeds: req.Speeds,
		UseFPM: req.UseFPM,
		Seed:   req.Seed,
		Verify: req.Verify,
		Class:  req.Class,
	})
	if err != nil {
		status := submitStatus(err)
		if status == http.StatusTooManyRequests {
			// A bounded queue rejects rather than hangs; tell clients how
			// long the current backlog needs to clear a slot, not a blind
			// constant.
			w.Header().Set("Retry-After", retryAfterSeconds(s.sched.LoadSnapshot()))
		}
		writeError(w, status, errorDTO(err))
		return
	}
	loc := "/jobs/" + view.ID
	w.Header().Set("Location", loc)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: view.ID, State: view.State.String(), Location: loc})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	view, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			&ErrorDTO{Kind: "not_found", Message: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(view))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	view, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			&ErrorDTO{Kind: "not_found", Message: fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return
	}
	if format := r.URL.Query().Get("format"); format != "" && format != "chrome" {
		writeError(w, http.StatusBadRequest,
			&ErrorDTO{Kind: "bad_request", Message: fmt.Sprintf("unknown trace format %q (want \"chrome\")", format)})
		return
	}
	rec := view.Trace
	var tl *trace.Timeline
	if view.Report != nil {
		tl = view.Report.Timeline
	}
	if rec == nil && tl == nil {
		writeError(w, http.StatusNotFound,
			&ErrorDTO{Kind: "not_found", Message: "job has no trace (observability off and no engine timeline)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if rec == nil {
		// No span recorder (Observe off): serve the bare engine timeline,
		// the pre-observability output shape.
		if err := trace.WriteChromeTrace(w, tl); err != nil {
			s.log.Error("trace write failed", "job", view.ID, "err", err)
		}
		return
	}
	// Timeline events are relative to the attempt's start; spans are
	// relative to admission. Shift the timeline lane onto the span clock.
	var tlOffset time.Duration
	if tl != nil && !view.AttemptStartedAt.IsZero() {
		tlOffset = view.AttemptStartedAt.Sub(rec.T0())
	}
	if err := obs.WriteChromeTrace(w, rec, tl, tlOffset); err != nil {
		s.log.Error("trace write failed", "job", view.ID, "err", err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WriteText(w, s.reg.Gather())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	ls := s.sched.LoadSnapshot()
	state := "ok"
	if ls.Draining {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, HealthStatus{
		Status:       state,
		Instance:     s.instanceID,
		SLOFiring:    s.slo.FiringCount(),
		LoadSnapshot: ls,
	})
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Report(time.Now()))
}

// FlightRecord is the GET /debug/flightrecorder body: the last N minutes
// of every sampled series plus the recent-events log and the SLO report —
// one JSON blob for postmortems.
type FlightRecord struct {
	Instance              string               `json:"instance,omitempty"`
	GeneratedAt           time.Time            `json:"generated_at"`
	WindowSeconds         float64              `json:"window_seconds"`
	SampleIntervalSeconds float64              `json:"sample_interval_seconds"`
	Series                []metrics.SeriesDump `json:"series"`
	Events                []metrics.Event      `json:"events"`
	SLO                   slo.Report           `json:"slo"`
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	window := time.Duration(s.store.WindowSeconds() * float64(time.Second))
	if q := r.URL.Query().Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest,
				&ErrorDTO{Kind: "bad_request", Message: fmt.Sprintf("invalid window %q (want a positive Go duration)", q)})
			return
		}
		if d < window {
			window = d
		}
	}
	writeJSON(w, http.StatusOK, FlightRecord{
		Instance:              s.instanceID,
		GeneratedAt:           now,
		WindowSeconds:         window.Seconds(),
		SampleIntervalSeconds: s.store.Interval().Seconds(),
		Series:                s.store.Dump(window, now),
		Events:                s.events.Snapshot(),
		SLO:                   s.slo.Report(now),
	})
}

// retryAfterSeconds estimates how long the backlog needs to free a queue
// slot — one second per queued-or-running job per worker, clamped to
// [1, 30] so a deep queue never tells clients to go away for minutes.
func retryAfterSeconds(ls sched.LoadSnapshot) string {
	workers := ls.Workers
	if workers < 1 {
		workers = 1
	}
	secs := (ls.Load() + workers - 1) / workers
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return fmt.Sprintf("%d", secs)
}

// Drain stops admission and waits (bounded by ctx) for queued and
// in-flight jobs to finish, then stops the metrics sampler — the SIGTERM
// path.
func (s *Server) Drain(ctx context.Context) error {
	err := s.sched.Drain(ctx)
	s.sampler.Stop()
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, e *ErrorDTO) {
	writeJSON(w, status, struct {
		Error *ErrorDTO `json:"error"`
	}{e})
}
