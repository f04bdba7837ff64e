package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/partition"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/stats"
)

// stackConfig says which service a workload (or a ladder rung) stands up.
type stackConfig struct {
	// router puts the cluster front-end and a second serve instance in front:
	// loopback HTTP → router (affinity) → 2 serve instances as local backends,
	// what `summagen-router -spawn 2` starts, flag defaults and all. Without
	// it the front door is one serve instance.
	router bool
	// netmpi runs every job over a fresh 3-rank loopback-TCP mesh with
	// recovery on, so every C cell is checkpointed: `summagen-serve -runtime
	// netmpi`. Without it jobs run on the in-process runtime.
	netmpi bool
}

var (
	fleetConfig  = stackConfig{router: true}
	netmpiConfig = stackConfig{netmpi: true}
)

// stack is a running service with its front door on a loopback port.
type stack struct {
	url     string
	httpSrv *http.Server
	done    chan struct{} // closed when httpSrv.Serve returns
	servers []*serve.Server
	rt      *router.Router
}

// schedConfig is the scheduler configuration the binaries build from their
// flag defaults.
func (cfg stackConfig) schedConfig() sched.Config {
	sc := sched.Config{
		Workers: 2, QueueCap: 64, Observe: true,
		Planner: &sched.Planner{Platform: device.HCLServer1()},
		Runner:  &sched.InprocRunner{},
	}
	if cfg.netmpi {
		sc.Runner = &sched.NetmpiRunner{OpTimeout: 10 * time.Second}
		sc.MaxRecoveryAttempts, sc.RecoveryBackoff = 2, 100*time.Millisecond
	}
	return sc
}

// startStack starts the service the way its binary would with default flags.
func startStack(cfg stackConfig) (*stack, error) {
	st := &stack{done: make(chan struct{})}
	instances := 1
	if cfg.router {
		instances = 2
	}
	var backends []*router.Backend
	for i := 0; i < instances; i++ {
		id := fmt.Sprintf("i%d", i)
		srv, err := serve.New(serve.Config{InstanceID: id, Sched: cfg.schedConfig()})
		if err != nil {
			st.stop()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		backends = append(backends, router.NewLocalBackend(id, srv.Handler()))
	}
	handler := st.servers[0].Handler()
	if cfg.router {
		policy, err := router.ParsePolicy("affinity")
		if err != nil {
			st.stop()
			return nil, err
		}
		st.rt, err = router.New(router.Config{
			Backends: backends, Policy: policy, MaxReroutes: 3, TenantBurst: 8,
			ProbeInterval: 500 * time.Millisecond, SlowProbe: 250 * time.Millisecond,
			SampleInterval: 10 * time.Second, FairnessWindow: time.Minute,
		})
		if err != nil {
			st.stop()
			return nil, err
		}
		handler = st.rt.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.httpSrv = &http.Server{Handler: handler}
	go func() {
		defer close(st.done)
		st.httpSrv.Serve(ln) //nolint:errcheck // always ErrServerClosed after stop
	}()
	return st, nil
}

// stop shuts the front door, the router's prober and every scheduler, and
// returns once their goroutines have exited.
func (st *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st.httpSrv != nil {
		st.httpSrv.Shutdown(ctx) //nolint:errcheck // bounded by ctx; nothing to do on timeout
		<-st.done
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, srv := range st.servers {
		srv.Drain(ctx) //nolint:errcheck // same
	}
}

// client is one keep-alive HTTP connection to the front door: the whole load
// generator holds two of them.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base, &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// submit POSTs one job and returns its id; any status but 202 is an error
// (a refusal is a failed op, never a dropped sample).
func (c *client) submit(req *serve.SubmitRequest) (string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var acc serve.SubmitResponse
	if err := json.Unmarshal(raw, &acc); err != nil {
		return "", err
	}
	return acc.ID, nil
}

// get fetches path and decodes the JSON body into out (nil discards it).
func (c *client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// status polls one job. RouterJobStatus is a superset of serve's body, so it
// decodes either front door.
func (c *client) status(id string) (*router.RouterJobStatus, error) {
	var st router.RouterJobStatus
	if err := c.get("/jobs/"+id, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func terminal(state string) bool { return state == "done" || state == "failed" }

// jobResult is what the load generator keeps of one job.
type jobResult struct {
	id             string
	due, sent, ack time.Time
	seen           time.Time // when the poller saw the terminal state
	polls          int
	st             *router.RouterJobStatus
	err            error
}

// sample turns a finished job into an op: due time → server-reported
// finished_at. A refusal, a transport error or a job that did not end in
// state=done is a failed op timed to when the harness learnt of it.
func (j *jobResult) sample(n int) opSample {
	s := opSample{start: j.due, n: n, late: j.sent.Sub(j.due)}
	if j.err == nil && j.st != nil && j.st.State == "done" && j.st.FinishedAt != nil {
		s.end, s.ok = *j.st.FinishedAt, true
		if j.st.Report != nil {
			s.computeMs = 1e3 * j.st.Report.ComputeTime
		}
		return s
	}
	s.end = j.seen
	if s.end.IsZero() {
		s.end = time.Now()
	}
	return s
}

// awaitJob polls one job every interval until it is terminal.
func awaitJob(c *client, j *jobResult, interval time.Duration) {
	for {
		j.polls++
		st, err := c.status(j.id)
		if err != nil {
			j.err, j.seen = err, time.Now()
			return
		}
		if terminal(st.State) {
			j.st, j.seen = st, time.Now()
			return
		}
		time.Sleep(interval)
	}
}

// runJob submits one job and polls it every millisecond until it is terminal.
func runJob(cl *client, req *serve.SubmitRequest) jobResult {
	var j jobResult
	j.due = time.Now()
	j.sent = j.due
	j.id, j.err = cl.submit(req)
	j.ack = time.Now()
	if j.err != nil {
		j.seen = j.ack
		return j
	}
	awaitJob(cl, &j, time.Millisecond)
	return j
}

// runClosed drives clients callers, each submitting its share of reqs one at a
// time and polling its own job every millisecond.
func runClosed(base string, reqs []*serve.SubmitRequest, clients int) []jobResult {
	out := make([]jobResult, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for i := c; i < len(reqs); i += clients {
				out[i] = runJob(cl, reqs[i])
			}
		}(c)
	}
	wg.Wait()
	return out
}

// poissonSchedule returns n arrival offsets of a Poisson process of the given
// rate (exponential gaps), drawn from rng.
func poissonSchedule(n int, rate float64, rng *rand.Rand) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// runOpen is the open-loop generator: one submitter goroutine posts each job
// when it is due, whatever the server is doing; one poller goroutine sweeps
// every in-flight job each sweep interval. Each job carries its due time, so a
// stalled server or a late generator is charged to the op.
func runOpen(base string, reqs []*serve.SubmitRequest, due []time.Duration, sweep time.Duration) []jobResult {
	out := make([]jobResult, len(reqs))
	// Sized to the number of sends: the submitter must never wait for the
	// poller.
	inflight := make(chan int, len(reqs))
	var wg sync.WaitGroup
	wg.Add(2)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		defer close(inflight)
		cl := newClient(base)
		defer cl.close()
		for i, req := range reqs {
			j := &out[i]
			j.due = t0.Add(due[i])
			time.Sleep(time.Until(j.due))
			j.sent = time.Now()
			j.id, j.err = cl.submit(req)
			j.ack = time.Now()
			if j.err != nil {
				j.seen = j.ack
				continue
			}
			inflight <- i
		}
	}()
	go func() {
		defer wg.Done()
		cl := newClient(base)
		defer cl.close()
		var live []int
		open := true
		for open || len(live) > 0 {
			time.Sleep(sweep)
		drain:
			for open {
				select {
				case i, ok := <-inflight:
					if !ok {
						open = false
						break drain
					}
					live = append(live, i)
				default:
					break drain
				}
			}
			keep := live[:0]
			for _, i := range live {
				j := &out[i]
				j.polls++
				st, err := cl.status(j.id)
				switch {
				case err != nil:
					j.err, j.seen = err, time.Now()
				case terminal(st.State):
					j.st, j.seen = st, time.Now()
				default:
					keep = append(keep, i)
				}
			}
			live = keep
		}
	}()
	wg.Wait()
	return out
}

// speedChoices are the speeds vectors the fleet's tenants send; nil lets the
// planner use the platform's device models.
var speedChoices = [][]float64{nil, {1, 2, 0.9}, {1, 1, 1}, {3, 1, 1}}

// jobMix builds count job specs. The composition is the same for every seed:
// the feasible (n, shape, speeds) combinations are dealt round after round,
// and in every round(1/perturbed)-th round each job carries a speeds vector
// nobody sent before, so that the plan cache keeps missing on every
// combination alike (a miss on shape "auto" runs the whole OptimalShape
// search, the costliest thing a job can ask for). The seed decides the order,
// the matrices and the perturbations: runs on different seeds then differ in
// schedule, not in how much work they hold. Every combination is tried on a
// throw-away planner first, so the mix holds no spec the service would reject:
// the workload measures serving, not refusals. one holds one unperturbed job
// of every combination.
func jobMix(count int, sizes []int, shapes []string, speeds [][]float64, perturbed float64, rng *rand.Rand) (reqs, one []*serve.SubmitRequest, err error) {
	probe := &sched.Planner{Platform: device.HCLServer1()}
	feasible := func(r *serve.SubmitRequest) bool {
		_, err := probe.Plan(sched.JobSpec{N: r.N, Shape: r.Shape, Speeds: r.Speeds})
		return err == nil
	}
	var combos []serve.SubmitRequest
	for _, n := range sizes {
		for _, sh := range shapes {
			for _, sp := range speeds {
				if r := (serve.SubmitRequest{N: n, Shape: sh, Speeds: sp}); feasible(&r) {
					combos = append(combos, r)
				}
			}
		}
	}
	if len(combos) == 0 {
		return nil, nil, fmt.Errorf("job mix: no feasible (n, shape, speeds) combination")
	}
	for k := range combos {
		r := combos[k]
		r.Seed = rng.Int63()
		one = append(one, &r)
	}
	every := 0
	if perturbed > 0 {
		every = int(math.Round(1 / perturbed))
	}
	reqs = make([]*serve.SubmitRequest, count)
	for i, k := range rng.Perm(count) {
		r := combos[k%len(combos)]
		r.Seed = rng.Int63()
		// A shape that cannot take speeds near {1, 2, 0.9} stays as it is.
		for try := 0; every > 0 && (k/len(combos))%every == 0 && try < 8; try++ {
			base := r
			base.Speeds = []float64{1 + 0.1*rng.Float64(), 2 + 0.1*rng.Float64(), 0.9 + 0.1*rng.Float64()}
			if feasible(&base) {
				r = base
				break
			}
		}
		reqs[i] = &r
	}
	return reqs, one, nil
}

func shapeNames(withAuto bool) []string {
	var names []string
	for _, sh := range partition.Shapes {
		names = append(names, sh.String())
	}
	if withAuto {
		names = append(names, "auto")
	}
	return names
}

// serviceInstance is a set-up service workload.
type serviceInstance struct {
	st   *stack
	cfg  stackConfig
	reqs []*serve.SubmitRequest // the seeded job stream
	next int                    // index of the first spec no run has sent yet
	due  []time.Duration        // open loop only: arrival offsets
	// sent and results are the last timed run's specs and outcomes, kept for
	// verify and for the layer metrics read off job statuses.
	sent    []*serve.SubmitRequest
	results []jobResult
}

// verifyJobs is how many specs are re-submitted with verify:true.
const verifyJobs = 20

// fleetRate is the open loop's offered load, jobs per second; fleetPerturbed
// is the share of its jobs that carry a speeds vector nobody sent before.
const (
	fleetRate      = 100
	fleetPerturbed = 0.10
)

// The matrix sizes of the two service workloads' job mixes.
var (
	fleetSizes  = []int{48, 64, 96, 128}
	netmpiSizes = []int{192, 256}
)

// setupService is everything a tenant's operator pays before the first job:
// generate the job stream, start servers (and router), run the warm-up jobs —
// one of every combination, so that the plan cache holds what a running
// service's would, whichever way the seed ordered the stream.
func setupService(cfg stackConfig, seed int64, ops int) (*serviceInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &serviceInstance{cfg: cfg}
	var warmReqs []*serve.SubmitRequest
	var err error
	if cfg.router {
		s.reqs, warmReqs, err = jobMix(ops, fleetSizes, shapeNames(true), speedChoices, fleetPerturbed, rng)
		s.due = poissonSchedule(ops, fleetRate, rng)
	} else {
		s.reqs, warmReqs, err = jobMix(ops, netmpiSizes, shapeNames(false), [][]float64{nil}, 0, rng)
	}
	if err != nil {
		return nil, err
	}
	if s.st, err = startStack(cfg); err != nil {
		return nil, err
	}
	for _, j := range runClosed(s.st.url, warmReqs, 1) {
		if sm := j.sample(0); !sm.ok {
			s.st.stop()
			return nil, fmt.Errorf("warm-up job failed: %v %+v", j.err, j.st)
		}
	}
	return s, nil
}

// run drives the timed phase over the next ops specs of the stream; a second
// pass gets fresh specs, so the first pass has not warmed the plan cache for it.
func (s *serviceInstance) run(ops int, tr *tracer) []opSample {
	reqs := s.reqs[s.next : s.next+ops]
	s.next += ops
	s.sent = reqs
	if s.cfg.router {
		s.results = runOpen(s.st.url, reqs, s.due[:ops], 5*time.Millisecond)
	} else {
		s.results = runClosed(s.st.url, reqs, 2)
	}
	samples := make([]opSample, ops)
	for i := range s.results {
		samples[i] = s.results[i].sample(reqs[i].N)
	}
	if tr != nil {
		s.trace(tr)
	}
	return samples
}

// verify re-submits verifyJobs of the timed run's specs with verify:true
// (untimed). A job that is not verified, or whose digest differs from the
// timed run's digest for the same spec, is a failed op.
func (s *serviceInstance) verify() (attempted, failed int) {
	step := max(1, len(s.results)/verifyJobs)
	var idx []int
	var reqs []*serve.SubmitRequest
	for i := 0; i < len(s.results) && len(idx) < verifyJobs; i += step {
		r := *s.sent[i]
		r.Verify = true
		idx, reqs = append(idx, i), append(reqs, &r)
	}
	for k, j := range runClosed(s.st.url, reqs, 1) {
		first := s.results[idx[k]].st
		ok := j.err == nil && j.st != nil && j.st.State == "done" && j.st.Verified &&
			first != nil && j.st.Digest == first.Digest && j.st.Digest != ""
		attempted++
		if !ok {
			failed++
		}
	}
	return attempted, failed
}

// layerMetrics reports what the last timed run's job statuses and the
// schedulers' own counters say about the layers this workload crosses; they
// take the place of the ladder's figures for a sample of the stream.
func (s *serviceInstance) layerMetrics(m map[string]metric) {
	setSchedSplit(m, serviceJobTimes(s.results))
	var scheds []*sched.Scheduler
	for _, srv := range s.st.servers {
		scheds = append(scheds, srv.Scheduler())
	}
	setSchedCounters(m, scheds...)
	var polls []float64
	for _, j := range s.results {
		polls = append(polls, float64(j.polls))
	}
	m["serve.polls_per_job"] = metric{stats.Mean(polls), "count"}
	if s.cfg.router {
		setRouting(m, s.results)
	}
	m["harness.reference_s"] = metric{0, "s"}
	m["harness.max_abs_err"] = metric{0, "abs"}
}

func (s *serviceInstance) close() { s.st.stop() }

// traceEvent is the part of the service's Chrome trace the harness reads.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// trace rebuilds each job's spans from what the public API returns: the load
// generator's own timestamps, the job-status timestamps, and the job's span
// tree from GET /jobs/{id}/trace (scheduler and engine spans, microseconds
// since admission). It runs after the timed phase, so fetching traces does
// not load the server while ops are timed.
func (s *serviceInstance) trace(tr *tracer) {
	cl := newClient(s.st.url)
	defer cl.close()
	for op := range s.results {
		j := &s.results[op]
		if j.st == nil || j.st.FinishedAt == nil {
			continue
		}
		root := tr.add("op", op, -1, 0, j.due, *j.st.FinishedAt)
		if j.sent.After(j.due) {
			tr.add("loadgen-late", op, root, 0, j.due, j.sent)
		}
		tr.add("http-submit", op, root, 0, j.sent, j.ack)
		tr.add("poll-lag (after the op)", op, -1, 0, *j.st.FinishedAt, j.seen)
		var events []traceEvent
		if err := cl.get("/jobs/"+j.id+"/trace", &events); err != nil {
			continue
		}
		addServiceSpans(tr, op, root, j.st.EnqueuedAt, events)
	}
}

// addServiceSpans nests one job's service-side events under root by interval
// containment: a span's parent is the innermost span of its own lane that
// contains it, else the innermost service-lane span that does.
func addServiceSpans(tr *tracer, op, root int, t0 time.Time, evs []traceEvent) {
	type placed struct {
		lane, idx  int
		start, end time.Time
	}
	var spans []traceEvent
	for _, e := range evs {
		// pid 2 is the engine's own event timeline (a second clock over the
		// same work); the span lanes are 0 (service), 1 (ranks), 3+ (ranks
		// of a netmpi mesh, clock-rebased by the server).
		if e.Ph == "X" && e.Pid != 2 && e.Name != "job" {
			spans = append(spans, e)
		}
	}
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].Ts != spans[b].Ts {
			return spans[a].Ts < spans[b].Ts
		}
		return spans[a].Dur > spans[b].Dur
	})
	var done []placed
	for _, e := range spans {
		lane := 0
		if e.Pid == 1 {
			lane = 1 + e.Tid
		} else if e.Pid >= 3 {
			lane = 1 + e.Pid - 3
		}
		start := t0.Add(time.Duration(e.Ts * float64(time.Microsecond)))
		end := start.Add(time.Duration(e.Dur * float64(time.Microsecond)))
		parent, service := -1, -1
		for k := len(done) - 1; k >= 0; k-- {
			d := done[k]
			if start.Before(d.start) || start.After(d.end) {
				continue
			}
			if d.lane == lane && parent < 0 {
				parent = d.idx
			}
			if d.lane == 0 && service < 0 {
				service = d.idx
			}
		}
		if parent < 0 {
			parent = service
		}
		if parent < 0 {
			parent = root
		}
		done = append(done, placed{lane, tr.add(spanName(e.Name), op, parent, lane, start, end), start, end})
	}
}
