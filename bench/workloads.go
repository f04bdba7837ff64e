package main

import (
	"math"
	"runtime"
	"syscall"
	"time"

	"repro/internal/partition"
)

// opSample is one op as the user sees it. An engine op is one multiply call;
// a service op is one job from its due time to the server-reported
// finished_at.
type opSample struct {
	start time.Time     // call start, or the job's due time
	end   time.Time     // call return, or finished_at
	n     int           // matrix dimension, for the GFLOP account
	ok    bool          // ran, and (where checked) gave the right C
	late  time.Duration // open loop: how long after due the job was sent
	// computeMs is the engine's own report of the slowest rank's compute time.
	computeMs float64
}

// latencyMs is the op's wall-clock latency.
func (s opSample) latencyMs() float64 { return ms(s.end.Sub(s.start)) }

// instance is a workload after set-up.
type instance interface {
	// run executes ops timed ops and returns one sample per op attempted.
	// With a tracer it also records the harness's spans.
	run(ops int, tr *tracer) []opSample
	// verify runs the untimed correctness pass the service workloads need.
	verify() (attempted, failed int)
	// layerMetrics adds the per-layer metrics only the workload's own run
	// can give (the traced pass calls it before close).
	layerMetrics(m map[string]metric)
	close()
}

// workload is one named input set. Every workload runs a fixed number of ops
// — opsPerSecond × the run length asked for — not a fixed duration, so a
// percentile means the same thing on both sides of a comparison; opsPerSecond
// is what this repository did on the 2-core box the benchmark was written
// on, so that a run of S seconds measures for about S seconds.
type workload struct {
	name         string
	opsPerSecond float64
	// n, tcp and service describe the sizes and runtime the workload uses, so
	// that the layer ladder calls each layer on the same sizes.
	n       int
	tcp     bool
	service bool
	// setup returns the instance and the wall interval set-up took, harness-only
	// work (the serial reference) excluded.
	setup func(seed int64, ops int) (inst instance, begin, end time.Time, err error)
}

func engineSetup(n int, shapes []partition.Shape, tcp bool) func(int64, int) (instance, time.Time, time.Time, error) {
	return func(seed int64, ops int) (instance, time.Time, time.Time, error) {
		begin := time.Now()
		// 5 % of the timed count as warm-up ops.
		e, err := setupEngine(n, shapes, tcp, seed, max(1, ops/20))
		end := time.Now()
		if err != nil {
			return nil, begin, end, err
		}
		if err := e.prepareReference(seed); err != nil {
			e.close()
			return nil, begin, end, err
		}
		return e, begin, end, nil
	}
}

func serviceSetup(cfg stackConfig) func(int64, int) (instance, time.Time, time.Time, error) {
	return func(seed int64, ops int) (instance, time.Time, time.Time, error) {
		begin := time.Now()
		s, err := setupService(cfg, seed, ops)
		if err != nil {
			return nil, begin, begin, err
		}
		return s, begin, time.Now(), nil
	}
}

// workloads is the benchmark's fixed set; bench/README.md records what each
// one runs, why it exists and which optimisation it exercises or bypasses.
var workloads = []workload{
	{
		// compute-bound.
		name:         "engine-inproc-n512",
		opsPerSecond: 14, n: 512,
		setup: engineSetup(512, partition.Shapes, false),
	},
	{
		// per-message-bound.
		name:         "engine-tcp-n128",
		opsPerSecond: 220, n: 128, tcp: true,
		setup: engineSetup(128, []partition.Shape{partition.SquareCorner, partition.OneDRectangle}, true),
	},
	{
		// service-path-bound, open loop.
		name:         "fleet-http-mixed",
		opsPerSecond: fleetRate, n: 96, service: true,
		setup: serviceSetup(fleetConfig),
	},
	{
		// capacity, closed loop of 2 clients.
		name:         "serve-netmpi-closed",
		opsPerSecond: 80, n: 256, tcp: true, service: true,
		setup: serviceSetup(netmpiConfig),
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opCount is the fixed number of timed ops for a run length.
func (w *workload) opCount(seconds float64) int {
	return max(4, int(math.Round(w.opsPerSecond*seconds)))
}

// phase is one timed pass over a workload with the process-wide memory
// counters read on either side of it. Every time is wall time (time.Now).
type phase struct {
	samples       []opSample
	before, after runtime.MemStats
	latencies     []float64 // ms, ok ops only, in op order
	computeMs     []float64
	lateMs        []float64
	okOps, badOps int
	flops         float64   // Σ 2N³ over the ok ops
	first, last   time.Time // first start (or due time) and last finish of the ok ops
	peakRSS       int64     // the process's high-water resident set after the ops, bytes
}

// measure runs ops timed ops on inst and collects what the metrics need.
func measure(inst instance, ops int, tr *tracer) *phase {
	ph := &phase{}
	runtime.ReadMemStats(&ph.before)
	ph.samples = inst.run(ops, tr)
	runtime.ReadMemStats(&ph.after)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		ph.peakRSS = ru.Maxrss << 10 // Linux counts in KiB
	}
	for _, s := range ph.samples {
		if !s.ok {
			ph.badOps++
			continue
		}
		ph.okOps++
		if ph.first.IsZero() || s.start.Before(ph.first) {
			ph.first = s.start
		}
		if s.end.After(ph.last) {
			ph.last = s.end
		}
		ph.flops += 2 * math.Pow(float64(s.n), 3)
		ph.latencies = append(ph.latencies, s.latencyMs())
		ph.computeMs = append(ph.computeMs, s.computeMs)
		ph.lateMs = append(ph.lateMs, ms(s.late))
	}
	return ph
}

// merge appends another block's ops to the phase (the traced pass measures
// in alternating blocks). Neither the memory counters nor the throughput
// interval are merged: only the untraced pass, which measures in one piece,
// reports them.
func (ph *phase) merge(o *phase) {
	ph.samples = append(ph.samples, o.samples...)
	ph.latencies = append(ph.latencies, o.latencies...)
	ph.computeMs = append(ph.computeMs, o.computeMs...)
	ph.lateMs = append(ph.lateMs, o.lateMs...)
	ph.okOps, ph.badOps = ph.okOps+o.okOps, ph.badOps+o.badOps
}

// endToEnd returns the metrics a user of the system would see for this phase
// (all but setup_s, which the caller measures around set-up): the median over
// every correct op, throughput over the whole timed interval.
func (ph *phase) endToEnd() map[string]metric {
	n := float64(len(ph.samples))
	wall := ph.last.Sub(ph.first).Seconds()
	return map[string]metric{
		"op_p50_ms":       {median(ph.latencies), "ms"},
		"ops_per_s":       {float64(ph.okOps) / wall, "1/s"},
		"gflops":          {ph.flops / wall / 1e9, "GFLOP/s"},
		"alloc_mb_per_op": {float64(ph.after.TotalAlloc-ph.before.TotalAlloc) / 1e6 / n, "MB"},
		"allocs_per_op":   {float64(ph.after.Mallocs-ph.before.Mallocs) / n, "count"},
		"peak_rss_mb":     {float64(ph.peakRSS) / 1e6, "MB"},
	}
}
