// Command summagen-serve runs the SummaGen matmul service: an HTTP API
// over a bounded job scheduler with a fixed worker pool (internal/sched +
// internal/serve).
//
//	summagen-serve -addr :8080 -workers 4 -runtime inproc
//
//	curl -s localhost:8080/jobs -d '{"n": 512, "shape": "auto", "verify": true}'
//	curl -s localhost:8080/jobs/j-000001
//	curl -s localhost:8080/metrics
//
// SIGTERM/SIGINT starts a graceful drain: admission stops (new submissions
// get 503), queued and in-flight jobs run to completion (bounded by
// -drain-timeout), then the process exits.
//
// With -recover-attempts > 0 the service survives worker-rank loss: a job
// whose netmpi rank dies mid-collective is replanned over the surviving
// ranks and resumed from its checkpoint (see internal/recover); the
// -chaos-kill-* flags inject a deterministic rank kill into every job's
// first attempt, for smoke-testing that path end to end.
//
// Beyond fail-stop, -chaos takes a full fault plan in the
// internal/faultinject grammar and applies it to every job's first
// attempt:
//
//	summagen-serve -runtime netmpi -chaos 'corrupt:rank=0,after=2,fires=1;slowlink:rank=1,rate=256k'
//
// and -grayfail (with the optional -gray-absolute-rtt operator bound)
// turns on the gray-failure monitor, which condemns up-but-sick ranks on
// RTT/goodput evidence and replans proactively instead of waiting for
// -op-timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/grayfail"
	"repro/internal/netmpi"
	"repro/internal/recover"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/slo"
)

// options bundles the flag values.
type options struct {
	addr         string
	instanceID   string
	platformName string
	runtimeName  string
	workers      int
	queueCap     int
	tenantCap    int
	jobTimeout   time.Duration
	maxN         int
	maxVerifyN   int
	opTimeout    time.Duration
	heartbeat    time.Duration
	drainTimeout time.Duration

	recoverAttempts int
	recoverBackoff  time.Duration
	checkpointDir   string
	chaosKillRank   int
	chaosKillFrame  int
	chaosPlan       string
	chaosTTL        time.Duration
	grayFail        bool
	grayAbsRTT      time.Duration

	sampleInterval   time.Duration
	sampleWindow     time.Duration
	sloAvailability  float64
	sloLatencyTarget time.Duration
	sloWindowScale   float64
	sloClasses       string

	observe     bool
	enablePprof bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	flag.StringVar(&o.instanceID, "instance-id", "", "instance identity echoed on /healthz (set when running behind summagen-router)")
	flag.StringVar(&o.platformName, "platform", "hclserver1", "device platform: hclserver1 (3 ranks) or hclserver2 (4 ranks)")
	flag.StringVar(&o.runtimeName, "runtime", "inproc", "execution runtime: inproc (channel) or netmpi (loopback TCP mesh)")
	flag.IntVar(&o.workers, "workers", 2, "concurrent worker slots (each job also runs P rank goroutines)")
	flag.IntVar(&o.queueCap, "queue-cap", 64, "max queued jobs; beyond it submissions get 429")
	flag.IntVar(&o.tenantCap, "tenant-cap", 0, "max queued+running jobs per tenant (0 = unlimited)")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 0, "per-job run timeout (0 = none)")
	flag.IntVar(&o.maxN, "max-n", 4096, "reject requests with n beyond this")
	flag.IntVar(&o.maxVerifyN, "max-verify-n", 1024, "reject verify=true requests with n beyond this")
	flag.DurationVar(&o.opTimeout, "op-timeout", 10*time.Second, "netmpi: per-operation timeout (failure detector)")
	flag.DurationVar(&o.heartbeat, "heartbeat", 0, "netmpi: heartbeat interval (0 = op-timeout/4)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "max time to wait for in-flight jobs on shutdown")
	flag.IntVar(&o.recoverAttempts, "recover-attempts", 2, "survivor-replan recovery attempts per job after a rank failure (0 disables)")
	flag.DurationVar(&o.recoverBackoff, "recover-backoff", 100*time.Millisecond, "initial backoff before a recovery attempt (doubles per attempt, jittered)")
	flag.StringVar(&o.checkpointDir, "checkpoint-dir", "", "directory for file-backed C-cell checkpoints (empty = in-memory)")
	flag.IntVar(&o.chaosKillRank, "chaos-kill-rank", -1, "chaos: kill this netmpi rank on every job's first attempt (-1 disables; testing only)")
	flag.IntVar(&o.chaosKillFrame, "chaos-kill-frame", 1, "chaos: frame index at which the kill fires")
	flag.StringVar(&o.chaosPlan, "chaos", "", "chaos: fault plan applied to every job's first attempt, in the faultinject grammar (e.g. 'corrupt:rank=0,after=2;partition:rank=2,after=2,heal=300ms'; testing only)")
	flag.DurationVar(&o.chaosTTL, "chaos-ttl", 0, "chaos: disarm the fault plan this long after startup (0 = armed forever) — the heal knob SLO burn-rate smoke tests clear against")
	flag.BoolVar(&o.grayFail, "grayfail", false, "netmpi: enable the gray-failure monitor (condemn up-but-sick ranks on RTT/goodput evidence and replan proactively)")
	flag.DurationVar(&o.grayAbsRTT, "gray-absolute-rtt", 0, "netmpi: absolute RTT bound for the gray-failure monitor — a link at or above it is degraded with no baseline required (0 disables; implies -grayfail)")
	flag.DurationVar(&o.sampleInterval, "sample-interval", 10*time.Second, "metrics sampler scrape period feeding the time-series store and SLO engine")
	flag.DurationVar(&o.sampleWindow, "sample-window", 30*time.Minute, "time-series retention window (also the flight recorder's maximum replay)")
	flag.Float64Var(&o.sloAvailability, "slo-availability", 0.999, "default-class availability objective (success ratio)")
	flag.DurationVar(&o.sloLatencyTarget, "slo-latency-target", time.Second, "default-class latency objective (0 disables the latency SLI)")
	flag.Float64Var(&o.sloWindowScale, "slo-window-scale", 1, "multiply every burn-rate alert window by this (smoke tests shrink alert timelines with values << 1)")
	flag.StringVar(&o.sloClasses, "slo-classes", "", "extra SLO classes as 'name=availability:latency,...' (e.g. 'gold=0.9999:500ms,bronze=0.99:5s')")
	flag.BoolVar(&o.observe, "obs", true, "record per-job spans (GET /jobs/{id}/trace serves them merged with the engine timeline)")
	flag.BoolVar(&o.enablePprof, "pprof", false, "expose /debug/pprof profiling endpoints")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "summagen-serve")
	if err := run(o, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(o options, logger *slog.Logger) error {
	var pl *device.Platform
	switch o.platformName {
	case "hclserver1":
		pl = device.HCLServer1()
	case "hclserver2":
		pl = device.HCLServer2()
	default:
		return fmt.Errorf("unknown platform %q (valid: hclserver1, hclserver2)", o.platformName)
	}

	// The chaos disarm deadline is wall-clock from startup: after it, the
	// wrap hook stops injecting and the service heals — the transition SLO
	// burn-rate alerts are smoke-tested against.
	var chaosDeadline time.Time
	if o.chaosTTL > 0 {
		chaosDeadline = time.Now().Add(o.chaosTTL)
	}
	chaosArmed := false

	var runner sched.Runner
	switch o.runtimeName {
	case "inproc":
		runner = &sched.InprocRunner{}
	case "netmpi":
		nr := &sched.NetmpiRunner{OpTimeout: o.opTimeout, HeartbeatInterval: o.heartbeat}
		plan, err := chaosPlanFromFlags(o)
		if err != nil {
			return err
		}
		if plan != nil {
			chaosArmed = true
			logger.Warn("CHAOS: fault plan armed for every job's first attempt",
				"plan", o.chaosPlan, "kill_rank", o.chaosKillRank, "kill_frame", o.chaosKillFrame,
				"ttl", o.chaosTTL.String())
			wrap := chaosWrapConn(*plan)
			if !chaosDeadline.IsZero() {
				inner := wrap
				wrap = func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
					if time.Now().After(chaosDeadline) {
						return nil
					}
					return inner(jobID, epoch, rank)
				}
			}
			nr.WrapConn = wrap
		}
		if o.grayFail || o.grayAbsRTT > 0 {
			nr.GrayFail = &grayfail.Config{AbsoluteSeconds: o.grayAbsRTT.Seconds()}
			logger.Info("gray-failure monitor enabled", "absolute_rtt", o.grayAbsRTT.String())
		}
		runner = nr
	default:
		return fmt.Errorf("unknown runtime %q (valid: inproc, netmpi)", o.runtimeName)
	}

	var store recover.CheckpointStore
	if o.checkpointDir != "" {
		fs, err := recover.NewFileStore(o.checkpointDir)
		if err != nil {
			return err
		}
		store = fs
	}

	objectives, err := sloObjectivesFromFlags(o)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		InstanceID: o.instanceID,
		Sched: sched.Config{
			Workers:             o.workers,
			QueueCap:            o.queueCap,
			TenantCap:           o.tenantCap,
			JobTimeout:          o.jobTimeout,
			Planner:             &sched.Planner{Platform: pl},
			Runner:              runner,
			MaxRecoveryAttempts: o.recoverAttempts,
			RecoveryBackoff:     o.recoverBackoff,
			Checkpoint:          store,
			Observe:             o.observe,
		},
		MaxN:           o.maxN,
		MaxVerifyN:     o.maxVerifyN,
		Logger:         logger,
		SampleInterval: o.sampleInterval,
		SampleWindow:   o.sampleWindow,
		SLOObjectives:  objectives,
		SLORules:       slo.DefaultRules(o.sloWindowScale),
	})
	if err != nil {
		return err
	}
	if chaosArmed {
		srv.Events().Add("chaos_arm", "fault plan armed: %s (ttl %s)", o.chaosPlan, o.chaosTTL)
		if o.chaosTTL > 0 {
			time.AfterFunc(time.Until(chaosDeadline), func() {
				srv.Events().Add("chaos_heal", "fault plan disarmed after %s TTL", o.chaosTTL)
				logger.Info("chaos disarmed", "ttl", o.chaosTTL.String())
			})
		}
	}

	handler := srv.Handler()
	if o.enablePprof {
		// Mount pprof explicitly on a wrapper mux: the service mux stays
		// profiling-free by default, and nothing is served off
		// http.DefaultServeMux.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", srv.Handler())
		handler = root
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", o.addr, "platform", pl.Name, "ranks", pl.P(),
			"runtime", runner.Name(), "workers", o.workers, "queue_cap", o.queueCap,
			"recover_attempts", o.recoverAttempts, "obs", o.observe)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		logger.Info("draining", "signal", s.String(), "timeout", o.drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		logger.Warn("drain incomplete, abandoning in-flight jobs", "err", err)
	} else {
		logger.Info("drained cleanly")
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

// sloObjectivesFromFlags builds the per-class objective list: the default
// class from -slo-availability/-slo-latency-target plus any -slo-classes
// entries ('name=availability:latency', comma-separated).
func sloObjectivesFromFlags(o options) ([]slo.Objective, error) {
	if o.sloAvailability <= 0 || o.sloAvailability >= 1 {
		return nil, fmt.Errorf("-slo-availability %v must be in (0, 1)", o.sloAvailability)
	}
	objs := []slo.Objective{{
		Class:         "default",
		Availability:  o.sloAvailability,
		LatencyTarget: o.sloLatencyTarget.Seconds(),
	}}
	if o.sloClasses == "" {
		return objs, nil
	}
	for _, part := range strings.Split(o.sloClasses, ",") {
		name, spec, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-slo-classes: %q is not name=availability:latency", part)
		}
		availStr, latStr, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("-slo-classes: %q is not name=availability:latency", part)
		}
		avail, err := strconv.ParseFloat(availStr, 64)
		if err != nil || avail <= 0 || avail >= 1 {
			return nil, fmt.Errorf("-slo-classes: availability %q must be a number in (0, 1)", availStr)
		}
		lat, err := time.ParseDuration(latStr)
		if err != nil || lat < 0 {
			return nil, fmt.Errorf("-slo-classes: latency %q must be a non-negative duration", latStr)
		}
		objs = append(objs, slo.Objective{Class: name, Availability: avail, LatencyTarget: lat.Seconds()})
	}
	return objs, nil
}

// chaosPlanFromFlags merges -chaos (the full faultinject grammar) with the
// legacy -chaos-kill-* pair into one plan, or nil when no chaos is asked
// for. Heartbeats are exempt from frame counting so "after=N" means the
// N-th data frame regardless of timer traffic.
func chaosPlanFromFlags(o options) (*faultinject.Plan, error) {
	var plan faultinject.Plan
	if o.chaosPlan != "" {
		p, err := faultinject.ParsePlan(o.chaosPlan)
		if err != nil {
			return nil, fmt.Errorf("-chaos: %w", err)
		}
		plan = p
	}
	if o.chaosKillRank >= 0 {
		plan.Rules = append(plan.Rules, faultinject.Rule{
			Rank:        o.chaosKillRank,
			Peer:        -1,
			AfterFrames: o.chaosKillFrame,
			Action:      faultinject.Close,
		})
	}
	if len(plan.Rules) == 0 {
		return nil, nil
	}
	plan.SkipCount = netmpi.IsHeartbeatFrame
	return &plan, nil
}

// chaosWrapConn builds the fault-injection hook for a chaos plan: one
// injector per job (frame counters, MaxFires budgets, and partition heal
// clocks are per-mesh and must span a job's reconnects). Faults apply only
// to epoch 0 — the first attempt — so a recovery attempt that follows runs
// on a clean mesh and must succeed.
func chaosWrapConn(plan faultinject.Plan) func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
	// The map is bounded: entries are only looked up while a job's mesh is
	// dialing, so once well past that, the oldest jobs' injectors can be
	// evicted FIFO — without this, a long-running chaos-enabled server
	// leaks one injector per job processed.
	const maxInjectors = 256
	var mu sync.Mutex
	injectors := map[string]*faultinject.Injector{}
	var order []string
	return func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
		if epoch != 0 {
			return nil
		}
		mu.Lock()
		inj := injectors[jobID]
		if inj == nil {
			inj = faultinject.New(plan)
			injectors[jobID] = inj
			order = append(order, jobID)
			if len(order) > maxInjectors {
				delete(injectors, order[0])
				order = append([]string(nil), order[1:]...)
			}
		}
		mu.Unlock()
		return inj.WrapConn(rank)
	}
}
