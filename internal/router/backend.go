package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Backend is one summagen-serve scheduler instance the router can dispatch
// to: either a remote process addressed over HTTP or an in-process
// serve.Server behind a socketless transport. All health and load state is
// owned here; policies read it through snapshot accessors.
//
// Beyond up/down, a backend tracks two gray signals the probe loop feeds:
//
//   - Suspect: the last two probes each took longer than SlowProbe — the
//     instance answers (so it is not dead) but answers slowly, the
//     fleet-level analogue of an up-but-sick rank. One slow probe is noise
//     (a GC pause, a queue hiccup); two in a row is a pattern.
//   - GrayHot: the instance's own gray-failure recovery counter
//     (LoadSnapshot.GrayRecoveries in its /healthz) rose recently — its
//     ranks keep going sick, so new work placed there is likely to pay a
//     replan. The heat decays after grayHotProbes clean probes.
//
// Both are advisory, not health: a suspect or gray-hot instance still
// takes jobs when no clean instance is healthy — Policy only ranks it
// below the clean ones.
type Backend struct {
	// ID names the instance in router job IDs, metrics labels, and
	// rendezvous hashing. Must be unique within a router.
	ID string

	// SlowProbe is the probe-duration threshold behind Suspect; 0 means
	// the default 250ms. Set before the first probe.
	SlowProbe time.Duration

	baseURL string
	client  *http.Client
	killed  *atomic.Bool // local backends only; nil for HTTP

	mu         sync.Mutex
	healthy    bool
	lastErr    error
	load       serve.HealthStatus
	lastProbe  time.Time
	slowStreak int
	slowProbes uint64
	suspect    bool
	lastGray   uint64
	grayHot    int
	graySeen   bool
}

// grayHotProbes is how many consecutive probes without a GrayRecoveries
// increase it takes for a backend's gray heat to decay back to cold.
const grayHotProbes = 4

// NewHTTPBackend addresses a remote summagen-serve instance at baseURL
// (e.g. "http://127.0.0.1:18431"). The backend starts unhealthy until the
// first successful probe.
func NewHTTPBackend(id, baseURL string) *Backend {
	return &Backend{
		ID:      id,
		baseURL: baseURL,
		client:  &http.Client{Timeout: 10 * time.Second},
	}
}

// NewLocalBackend wraps an in-process HTTP handler (a serve.Server's
// Handler) as a backend: requests are dispatched directly, no socket. Used
// by tests and by summagen-router's -spawn mode.
func NewLocalBackend(id string, h http.Handler) *Backend {
	killed := &atomic.Bool{}
	return &Backend{
		ID:      id,
		baseURL: "http://instance-" + id,
		client:  &http.Client{Transport: &handlerTransport{h: h, killed: killed}},
		killed:  killed,
	}
}

// Kill simulates instance death for a local backend: every subsequent
// request fails with a connection error, exactly like a dead process. No-op
// for HTTP backends (kill the process instead).
func (b *Backend) Kill() {
	if b.killed != nil {
		b.killed.Store(true)
	}
	b.mu.Lock()
	b.healthy = false
	b.lastErr = fmt.Errorf("router: instance %s killed", b.ID)
	b.mu.Unlock()
}

// Healthy reports the backend's last known health.
func (b *Backend) Healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// Load returns the last probed load snapshot (zero value before the first
// successful probe).
func (b *Backend) Load() serve.HealthStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.load
}

// Suspect reports that the last two probes were both slower than
// SlowProbe. Any probe under the threshold clears it.
func (b *Backend) Suspect() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.suspect
}

// GrayHot reports that the instance's gray-recovery counter rose within
// the last grayHotProbes probes.
func (b *Backend) GrayHot() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.grayHot > 0
}

// placement reads what Policy.Pick ranks on under one lock: the health
// class (draining; suspect, gray-hot or SLO-burning; else clean) and the
// probed queued + in-flight load.
func (b *Backend) placement() (class, load int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.load.Draining:
		class = classDraining
	case b.suspect || b.grayHot > 0 || b.load.SLOFiring > 0:
		class = classSick
	}
	return class, b.load.Load()
}

// SlowProbes totals probes that exceeded the SlowProbe threshold (the
// counter behind summagen_router_slow_probes_total).
func (b *Backend) SlowProbes() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.slowProbes
}

// markDead records a connection-level failure observed while proxying.
func (b *Backend) markDead(err error) {
	b.mu.Lock()
	b.healthy = false
	b.lastErr = err
	b.mu.Unlock()
}

// Probe GETs /healthz and updates health + load. A backend that answers is
// healthy even while draining — routing away from a draining instance is
// Policy's job (Load reports Draining), liveness is this probe's.
// The probe doubles as the gray sensor: its own duration feeds the
// slow-probe streak, and the snapshot's GrayRecoveries delta feeds the
// gray heat.
func (b *Backend) Probe() error {
	start := time.Now()
	resp, err := b.client.Get(b.baseURL + "/healthz")
	if err != nil {
		b.markDead(err)
		return err
	}
	defer resp.Body.Close()
	var hs serve.HealthStatus
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("router: %s /healthz = %d", b.ID, resp.StatusCode)
		b.markDead(err)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		b.markDead(fmt.Errorf("router: %s /healthz decode: %w", b.ID, err))
		return err
	}
	elapsed := time.Since(start)
	slowAfter := b.SlowProbe
	if slowAfter <= 0 {
		slowAfter = 250 * time.Millisecond
	}
	b.mu.Lock()
	b.healthy = true
	b.lastErr = nil
	b.load = hs
	b.lastProbe = time.Now()
	if elapsed >= slowAfter {
		b.slowStreak++
		b.slowProbes++
	} else {
		b.slowStreak = 0
	}
	b.suspect = b.slowStreak >= 2
	// The first probe only establishes the baseline: a counter that was
	// already non-zero when the router arrived is history, not recency.
	if b.graySeen && hs.GrayRecoveries > b.lastGray {
		b.grayHot = grayHotProbes
	} else if b.grayHot > 0 {
		b.grayHot--
	}
	b.lastGray = hs.GrayRecoveries
	b.graySeen = true
	b.mu.Unlock()
	return nil
}

// do issues one request against the backend, returning the status, body,
// and selected headers. hdr carries extra request headers (the SLO-class
// stamp); nil sends none. A transport-level error (connection refused,
// killed instance) marks the backend dead and is returned as err;
// HTTP-level errors are returned through status/body like any response.
func (b *Backend) do(method, path string, body []byte, hdr http.Header) (*backendResponse, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.baseURL+path, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.markDead(err)
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		b.markDead(err)
		return nil, err
	}
	return &backendResponse{
		status:      resp.StatusCode,
		body:        raw,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
	}, nil
}

// backendResponse is the slice of an upstream response the router proxies.
type backendResponse struct {
	status      int
	body        []byte
	contentType string
	retryAfter  string
}

// handlerTransport satisfies http.RoundTripper by invoking an in-process
// handler directly. When killed, it fails like a closed socket so the
// router's failover path is exercised identically for local and remote
// instances.
type handlerTransport struct {
	h      http.Handler
	killed *atomic.Bool
}

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.killed.Load() {
		return nil, fmt.Errorf("dial tcp %s: connect: connection refused (instance killed)", req.URL.Host)
	}
	rec := &responseRecorder{header: http.Header{}}
	t.h.ServeHTTP(rec, req)
	code := rec.code
	if code == 0 {
		code = http.StatusOK
	}
	return &http.Response{
		StatusCode:    code,
		Status:        fmt.Sprintf("%d %s", code, http.StatusText(code)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.buf.Bytes())),
		ContentLength: int64(rec.buf.Len()),
		Request:       req,
	}, nil
}

// responseRecorder is a minimal in-memory http.ResponseWriter (httptest's
// recorder without the test-only dependency in a shipped binary).
type responseRecorder struct {
	header http.Header
	buf    bytes.Buffer
	code   int
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.buf.Write(p)
}

func (r *responseRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
