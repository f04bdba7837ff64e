package router

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
)

// routerMetrics holds the router's own instrument families on a shared
// metrics.Registry — the same core the serve layer uses — plus the
// collect-backed fleet gauges derived from backend probe state. The
// registry feeds a time-series store via a sampler, which is what makes
// the Jain fairness index computable: it is a *rate* statistic over the
// per-tenant admitted counters, not an instantaneous one.
type routerMetrics struct {
	reg    *metrics.Registry
	store  *metrics.Store
	events *metrics.EventLog

	routed      *metrics.CounterVec // instance, policy
	reroutes    *metrics.CounterVec // from (lost instance)
	rejected    *metrics.CounterVec // reason
	proxyErrors *metrics.CounterVec // instance
	admitted    *metrics.CounterVec // tenant
	tenants     slo.Labels          // folds admitted's tenant label

	fairnessWindow time.Duration
}

// eventLogSize bounds the router's flight-recorder event ring.
const eventLogSize = 512

// sampleWindow bounds the router's series history.
const sampleWindow = 30 * time.Minute

// newRouterMetrics registers the router families in the order the old
// hand-rolled writer emitted them, so a scrape diff across the refactor
// is label-order churn at most. backends is the fixed fleet slice; the
// collect families snapshot it at Gather time.
func newRouterMetrics(backends []*Backend, fairnessWindow, sampleInterval time.Duration) *routerMetrics {
	m := &routerMetrics{
		reg:            metrics.New(),
		store:          metrics.NewStore(sampleWindow, sampleInterval),
		events:         metrics.NewEventLog(eventLogSize),
		fairnessWindow: fairnessWindow,
	}
	m.reg.CollectGauge("summagen_router_backend_up", []string{"instance"}, func(emit metrics.Emit) {
		for _, b := range backends {
			emit(b01(b.Healthy()), b.ID)
		}
	})
	m.reg.CollectGauge("summagen_router_backend_suspect", []string{"instance"}, func(emit metrics.Emit) {
		for _, b := range backends {
			emit(b01(b.Suspect()), b.ID)
		}
	})
	m.reg.CollectGauge("summagen_router_backend_gray_hot", []string{"instance"}, func(emit metrics.Emit) {
		for _, b := range backends {
			emit(b01(b.GrayHot()), b.ID)
		}
	})
	m.reg.CollectCounter("summagen_router_slow_probes_total", []string{"instance"}, func(emit metrics.Emit) {
		for _, b := range backends {
			emit(float64(b.SlowProbes()), b.ID)
		}
	})
	m.reg.CollectGauge("summagen_router_backends", []string{"state"}, func(emit metrics.Emit) {
		healthy := 0
		for _, b := range backends {
			if b.Healthy() {
				healthy++
			}
		}
		emit(float64(healthy), "healthy")
		emit(float64(len(backends)), "total")
	})
	m.reg.CollectGauge("summagen_fleet_queue_depth", nil, func(emit metrics.Emit) {
		depth, _, _ := fleetLoad(backends)
		emit(float64(depth))
	})
	m.reg.CollectGauge("summagen_fleet_inflight_jobs", nil, func(emit metrics.Emit) {
		_, inflight, _ := fleetLoad(backends)
		emit(float64(inflight))
	})
	m.reg.CollectGauge("summagen_fleet_slo_firing", nil, func(emit metrics.Emit) {
		_, _, firing := fleetLoad(backends)
		emit(float64(firing))
	})
	m.routed = m.reg.CounterVec("summagen_router_routed_total", "instance", "policy")
	m.reroutes = m.reg.CounterVec("summagen_router_reroutes_total", "from")
	m.rejected = m.reg.CounterVec("summagen_router_rejected_total", "reason")
	m.proxyErrors = m.reg.CounterVec("summagen_router_proxy_errors_total", "instance")
	m.admitted = m.reg.CounterVec("summagen_router_admitted_total", "tenant")
	m.reg.CollectGauge("summagen_fairness_jain", nil, func(emit metrics.Emit) {
		emit(m.jain(time.Now()))
	})
	return m
}

// admit counts one admitted job of tenant ("" is "default"); tenants past
// the first slo.MaxLabels share tenant="other".
func (m *routerMetrics) admit(tenant string) {
	if tenant == "" {
		tenant = "default"
	}
	m.admitted.With(m.tenants.Label(tenant)).Inc()
}

// jain computes the Jain fairness index J = (Σx)² / (n·Σx²) over the
// per-tenant admitted-throughput rates in the fairness window: 1.0 when
// every tenant gets equal throughput, → 1/n when one tenant floods. No
// traffic (or a single tenant) is trivially fair.
func (m *routerMetrics) jain(now time.Time) float64 {
	var sum, sumSq float64
	n := 0
	for _, labels := range m.store.LabelSets("summagen_router_admitted_total") {
		rate, ok := m.store.Rate("summagen_router_admitted_total", labels, m.fairnessWindow, now)
		if !ok {
			continue
		}
		sum += rate
		sumSq += rate * rate
		n++
	}
	if n == 0 || sumSq == 0 {
		return 1
	}
	return (sum * sum) / (float64(n) * sumSq)
}

// fleetLoad sums queue depth, in-flight jobs, and firing SLO alerts over
// healthy instances' last probed snapshots.
func fleetLoad(backends []*Backend) (depth, inflight, sloFiring int) {
	for _, b := range backends {
		if !b.Healthy() {
			continue
		}
		ls := b.Load()
		depth += ls.QueueDepth
		inflight += ls.InFlight
		sloFiring += ls.SLOFiring
	}
	return depth, inflight, sloFiring
}

func b01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
