// Command summagen-router runs the cluster front-end: a policy-driven
// router fanning jobs out to N summagen-serve scheduler instances.
//
//	# route across two running instances with plan-key affinity
//	summagen-router -addr :8090 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
//
//	# or spawn a self-contained 2-instance cluster in one process
//	summagen-router -addr :8090 -spawn 2
//
//	curl -s localhost:8090/jobs -d '{"n": 256, "shape": "auto"}'
//	curl -s localhost:8090/healthz        # fleet view with per-instance depth
//	curl -s localhost:8090/metrics        # merged: instance="..." + fleet families
//
// Policies: round-robin, least-loaded (probed queue depth + in-flight),
// affinity (rendezvous-hashed plan-key stickiness, preserving each
// instance's plan cache). Per-tenant token buckets at the
// edge return 429 + Retry-After before an abusive tenant reaches any
// instance queue. A job whose instance dies is transparently re-submitted
// to a healthy instance (bounded by -max-reroutes) — deterministic inputs
// make the re-run digest-identical.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/device"
	"repro/internal/router"
	"repro/internal/sched"
	"repro/internal/serve"
)

// stringList is a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ",") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

type options struct {
	addr          string
	backends      string
	spawn         int
	policyName    string
	maxReroutes   int
	tenantRate    float64
	tenantBurst   int
	probeInterval time.Duration
	slowProbe     time.Duration
	drainTimeout  time.Duration

	sampleInterval time.Duration
	fairnessWindow time.Duration
	tenantClass    stringList

	// spawned-instance knobs
	platformName string
	workers      int
	queueCap     int
	observe      bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8090", "HTTP listen address")
	flag.StringVar(&o.backends, "backends", "", "comma-separated summagen-serve base URLs (e.g. http://127.0.0.1:8081,http://127.0.0.1:8082)")
	flag.IntVar(&o.spawn, "spawn", 0, "spawn this many in-process scheduler instances instead of -backends")
	flag.StringVar(&o.policyName, "policy", "affinity", "routing policy: round-robin, least-loaded, or affinity")
	flag.IntVar(&o.maxReroutes, "max-reroutes", 3, "failover re-submissions per job after instance loss")
	flag.Float64Var(&o.tenantRate, "tenant-rate", 0, "edge admission: tokens/second per tenant (0 disables)")
	flag.IntVar(&o.tenantBurst, "tenant-burst", 8, "edge admission: token bucket capacity")
	flag.DurationVar(&o.probeInterval, "probe-interval", 500*time.Millisecond, "health probe period (per-backend jitter is added on top)")
	flag.DurationVar(&o.slowProbe, "slow-probe", 250*time.Millisecond, "probe duration above which a probe counts as slow; two in a row mark the instance suspect")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "max wait for spawned instances to drain on shutdown")
	flag.DurationVar(&o.sampleInterval, "sample-interval", 10*time.Second, "router metrics sampler period (feeds the fairness index and flight recorder)")
	flag.DurationVar(&o.fairnessWindow, "fairness-window", time.Minute, "rate window for the summagen_fairness_jain index over per-tenant admitted throughput")
	flag.Var(&o.tenantClass, "tenant-class", "tenant=class SLO mapping stamped on submissions via X-SLO-Class (repeatable)")
	flag.StringVar(&o.platformName, "platform", "hclserver1", "spawned instances: device platform")
	flag.IntVar(&o.workers, "workers", 2, "spawned instances: worker slots each")
	flag.IntVar(&o.queueCap, "queue-cap", 64, "spawned instances: queue capacity each")
	flag.BoolVar(&o.observe, "obs", true, "spawned instances: record per-job spans")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "summagen-router")
	if err := run(o, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(o options, logger *slog.Logger) error {
	policy, err := router.ParsePolicy(o.policyName)
	if err != nil {
		return err
	}

	var backends []*router.Backend
	var spawned []*serve.Server
	switch {
	case o.backends != "" && o.spawn > 0:
		return fmt.Errorf("-backends and -spawn are mutually exclusive")
	case o.backends != "":
		for i, url := range strings.Split(o.backends, ",") {
			url = strings.TrimRight(strings.TrimSpace(url), "/")
			if url == "" {
				continue
			}
			backends = append(backends, router.NewHTTPBackend(fmt.Sprintf("i%d", i), url))
		}
	case o.spawn > 0:
		pl, err := device.PlatformByName(o.platformName)
		if err != nil {
			return err
		}
		for i := 0; i < o.spawn; i++ {
			id := fmt.Sprintf("i%d", i)
			srv, err := serve.New(serve.Config{
				InstanceID: id,
				Sched: sched.Config{
					Workers:  o.workers,
					QueueCap: o.queueCap,
					Planner:  &sched.Planner{Platform: pl},
					Runner:   &sched.InprocRunner{},
					Observe:  o.observe,
				},
				Logger: logger.With("instance", id),
			})
			if err != nil {
				return err
			}
			spawned = append(spawned, srv)
			backends = append(backends, router.NewLocalBackend(id, srv.Handler()))
		}
	default:
		return fmt.Errorf("need -backends or -spawn")
	}
	if len(backends) == 0 {
		return fmt.Errorf("no backends parsed from %q", o.backends)
	}

	tenantClasses := map[string]string{}
	for _, m := range o.tenantClass {
		tenant, class, ok := strings.Cut(m, "=")
		if !ok || tenant == "" || class == "" {
			return fmt.Errorf("-tenant-class %q is not tenant=class", m)
		}
		tenantClasses[tenant] = class
	}

	rt, err := router.New(router.Config{
		Backends:       backends,
		Policy:         policy,
		MaxReroutes:    o.maxReroutes,
		TenantRate:     o.tenantRate,
		TenantBurst:    o.tenantBurst,
		ProbeInterval:  o.probeInterval,
		SlowProbe:      o.slowProbe,
		Logger:         logger,
		SampleInterval: o.sampleInterval,
		FairnessWindow: o.fairnessWindow,
		TenantClasses:  tenantClasses,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	httpSrv := &http.Server{Addr: o.addr, Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", o.addr, "policy", policy.Name(),
			"backends", len(backends), "spawned", len(spawned))
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	for _, srv := range spawned {
		if err := srv.Drain(ctx); err != nil {
			logger.Warn("instance drain incomplete", "err", err)
		}
	}
	if len(spawned) > 0 {
		logger.Info("spawned instances drained")
	}
	return httpSrv.Shutdown(ctx)
}
