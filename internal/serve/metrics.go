package serve

import (
	"sort"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/netmpi"
	"repro/internal/sched"
)

// latencyBounds spans 100µs to ~100s in roughly 1-2.5-5 steps — suitable
// for GEMM service latencies from tiny in-process jobs to paper-scale runs.
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// metricsRegistry owns the server's instrument handles on the shared
// metrics.Registry. Latency histograms are metrics.Histogram, which is
// internally synchronized: there is no external mutex to hold.
// Families whose totals live in another subsystem's snapshot (the
// scheduler's counters, the netmpi transport stats) register as
// collect-backed instruments reading the snapshot cached by the
// registry's OnGather hook.
type metricsRegistry struct {
	reg    *metrics.Registry
	events *metrics.EventLog

	// snap is refreshed once per Gather (under the registry lock) so the
	// dozens of collect-backed families share one scheduler snapshot.
	snap sched.Metrics

	failures        *metrics.CounterVec   // by error kind
	byRuntime       *metrics.CounterVec   // completed jobs by runtime name
	latency         *metrics.HistogramVec // by shape
	rankStage       *metrics.CounterVec   // cumulative stage seconds by rank
	rankGflops      *metrics.GaugeVec     // last observed per-rank dgemm throughput
	imbalance       *metrics.GaugeVec     // last load-imbalance ratio by shape
	slowest         *metrics.CounterVec   // jobs whose slowest rank was this one
	recoveryLatency *metrics.Histogram    // first failure → terminal, recovered jobs
	sloRequests     *metrics.CounterVec   // tenant/class/outcome — the availability SLI
	sloLatency      *metrics.HistogramVec // tenant/class, successful jobs — the latency SLI
}

// newMetricsRegistry registers every serve-owned family in exposition
// order. The sched-snapshot and transport collectors read m.snap, which
// serve.New refreshes via reg.OnGather once the scheduler exists.
func newMetricsRegistry(reg *metrics.Registry, events *metrics.EventLog) *metricsRegistry {
	m := &metricsRegistry{reg: reg, events: events}

	gauge := func(name string, v func(sched.Metrics) float64) {
		reg.CollectGauge(name, nil, func(emit metrics.Emit) { emit(v(m.snap)) })
	}
	counter := func(name string, v func(sched.Metrics) float64) {
		reg.CollectCounter(name, nil, func(emit metrics.Emit) { emit(v(m.snap)) })
	}
	gauge("summagen_queue_depth", func(sm sched.Metrics) float64 { return float64(sm.QueueDepth) })
	gauge("summagen_inflight_jobs", func(sm sched.Metrics) float64 { return float64(sm.InFlight) })
	gauge("summagen_workers", func(sm sched.Metrics) float64 { return float64(sm.Workers) })
	gauge("summagen_queue_cap", func(sm sched.Metrics) float64 { return float64(sm.QueueCap) })
	gauge("summagen_draining", func(sm sched.Metrics) float64 {
		if sm.Draining {
			return 1
		}
		return 0
	})
	counter("summagen_jobs_submitted_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.Submitted) })
	counter("summagen_jobs_done_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.Done) })
	counter("summagen_jobs_failed_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.Failed) })
	reg.CollectCounter("summagen_jobs_rejected_total", []string{"reason"}, func(emit metrics.Emit) {
		emit(float64(m.snap.Counters.RejectedQueueFull), "queue_full")
		emit(float64(m.snap.Counters.RejectedTenant), "tenant_cap")
		emit(float64(m.snap.Counters.RejectedDraining), "draining")
	})
	counter("summagen_jobs_timeout_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.TimedOut) })
	counter("summagen_batches_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.Batches) })
	counter("summagen_batched_jobs_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.BatchedJobs) })
	reg.CollectCounter("summagen_plan_cache_total", []string{"outcome"}, func(emit metrics.Emit) {
		emit(float64(m.snap.PlanCacheHits), "hit")
		emit(float64(m.snap.PlanCacheMisses), "miss")
	})
	counter("summagen_recovery_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.Recoveries) })
	counter("summagen_recovered_jobs_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.RecoveredJobs) })
	counter("summagen_recovery_failures_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.RecoveryFailures) })
	counter("summagen_gray_recoveries_total", func(sm sched.Metrics) float64 { return float64(sm.Counters.GrayRecoveries) })
	reg.CollectCounter("summagen_recovery_cells_total", []string{"outcome"}, func(emit metrics.Emit) {
		emit(float64(m.snap.Counters.CellsRestored), "restored")
		emit(float64(m.snap.Counters.CellsRecomputed), "recomputed")
		emit(float64(m.snap.Counters.CellsRedone), "redone")
	})

	m.failures = reg.CounterVec("summagen_job_failures_total", "kind")
	m.byRuntime = reg.CounterVec("summagen_jobs_by_runtime_total", "runtime")
	m.latency = reg.HistogramVec("summagen_job_latency_seconds", latencyBounds, "shape")
	m.rankStage = reg.CounterVec("summagen_rank_stage_seconds_total", "rank", "stage")
	m.rankGflops = reg.GaugeVec("summagen_rank_dgemm_gflops", "rank")
	m.imbalance = reg.GaugeVec("summagen_rank_imbalance_ratio", "shape")
	m.slowest = reg.CounterVec("summagen_rank_slowest_total", "rank")
	m.recoveryLatency = reg.Histogram("summagen_recovery_seconds", latencyBounds)

	registerNetCollectors(m)

	m.sloRequests = reg.CounterVec("summagen_slo_requests_total", "tenant", "class", "outcome")
	m.sloLatency = reg.HistogramVec("summagen_slo_latency_seconds", latencyBounds, "tenant", "class")
	return m
}

// registerNetCollectors registers the netmpi transport counters and the
// comm-volume audit; their samples are absent unless the scheduler's
// runner reports them (sched.NetReporter). The process-global frame pool
// registers regardless — it exists even when the runner is inproc.
func registerNetCollectors(m *metricsRegistry) {
	reg := m.reg
	perPeer := func(name string, v func(sched.NetPeerCounters) float64) {
		reg.CollectCounter(name, []string{"rank", "peer"}, func(emit metrics.Emit) {
			if m.snap.Net == nil {
				return
			}
			keys := make([]sched.NetPeerKey, 0, len(m.snap.Net.PerPeer))
			for k := range m.snap.Net.PerPeer {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].Rank != keys[j].Rank {
					return keys[i].Rank < keys[j].Rank
				}
				return keys[i].Peer < keys[j].Peer
			})
			for _, k := range keys {
				emit(v(m.snap.Net.PerPeer[k]), strconv.Itoa(k.Rank), strconv.Itoa(k.Peer))
			}
		})
	}
	perPeer("summagen_net_sent_bytes_total", func(c sched.NetPeerCounters) float64 { return float64(c.BytesSent) })
	perPeer("summagen_net_recv_bytes_total", func(c sched.NetPeerCounters) float64 { return float64(c.BytesRecv) })
	perPeer("summagen_net_sent_frames_total", func(c sched.NetPeerCounters) float64 { return float64(c.FramesSent) })
	perPeer("summagen_net_recv_frames_total", func(c sched.NetPeerCounters) float64 { return float64(c.FramesRecv) })
	perPeer("summagen_net_send_seconds_total", func(c sched.NetPeerCounters) float64 { return c.SendSeconds })
	perPeer("summagen_net_recv_seconds_total", func(c sched.NetPeerCounters) float64 { return c.RecvSeconds })
	perPeer("summagen_net_retries_total", func(c sched.NetPeerCounters) float64 { return float64(c.Retries) })
	perPeer("summagen_net_reconnects_total", func(c sched.NetPeerCounters) float64 { return float64(c.Reconnects) })
	perPeer("summagen_net_heartbeats_total", func(c sched.NetPeerCounters) float64 { return float64(c.Heartbeats) })
	perPeer("summagen_net_heartbeat_delay_seconds_total", func(c sched.NetPeerCounters) float64 { return c.HeartbeatDelaySeconds })
	perPeer("summagen_net_corrupt_frames_total", func(c sched.NetPeerCounters) float64 { return float64(c.CorruptFrames) })
	perPeer("summagen_net_rerequests_total", func(c sched.NetPeerCounters) float64 { return float64(c.Rerequests) })
	perPeer("summagen_net_retransmit_frames_total", func(c sched.NetPeerCounters) float64 { return float64(c.RetransmitFrames) })
	perPeer("summagen_net_retransmit_bytes_total", func(c sched.NetPeerCounters) float64 { return float64(c.RetransmitBytes) })
	reg.CollectCounter("summagen_net_epoch_rejects_total", nil, func(emit metrics.Emit) {
		if m.snap.Net != nil {
			emit(float64(m.snap.Net.EpochRejects))
		}
	})
	reg.CollectCounter("summagen_net_gray_degraded_total", nil, func(emit metrics.Emit) {
		if m.snap.Net != nil {
			emit(float64(m.snap.Net.GrayDegraded))
		}
	})

	netmpi.RegisterPoolMetrics(reg)

	reg.CollectCounter("summagen_comm_volume_bytes_total", []string{"shape", "kind"}, func(emit metrics.Emit) {
		for _, shape := range sortedVolumeShapes(m.snap) {
			v := m.snap.CommVolumes[shape]
			emit(float64(v.PredictedBytes), shape, "predicted")
			emit(float64(v.ObservedBytes), shape, "observed")
		}
	})
	reg.CollectGauge("summagen_comm_volume_ratio", []string{"shape"}, func(emit metrics.Emit) {
		for _, shape := range sortedVolumeShapes(m.snap) {
			emit(m.snap.CommVolumes[shape].Ratio(), shape)
		}
	})
}

func sortedVolumeShapes(sm sched.Metrics) []string {
	shapes := make([]string, 0, len(sm.CommVolumes))
	for s := range sm.CommVolumes {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	return shapes
}

// observe records one terminal job. Latency is end-to-end (enqueue to
// finish) so queueing shows up in the histograms, keyed by the planned
// shape ("unplanned" when the job failed before planning). The SLO
// series record every job under its (tenant, class): outcome for the
// availability SLI, successful-job latency for the latency SLI.
func (m *metricsRegistry) observe(v sched.JobView, runtime string) {
	shape := "unplanned"
	if v.Plan != nil && v.Plan.Shape != "" {
		shape = v.Plan.Shape
	}
	tenant, class := sloKey(v.Spec)
	if v.Attempts > 0 && v.Err == nil {
		m.recoveryLatency.Observe(v.RecoveryTime.Seconds())
		m.events.Add("recovery", "job %s recovered from ranks %v in %.3fs (attempts=%d)",
			v.ID, v.RecoveredFrom, v.RecoveryTime.Seconds(), v.Attempts)
	}
	if len(v.DegradedPeers) > 0 {
		m.events.Add("gray_condemnation", "job %s condemned gray peers %v", v.ID, v.DegradedPeers)
	}
	if v.Err != nil {
		m.failures.With(errorKind(v.Err)).Inc()
		m.sloRequests.With(tenant, class, "error").Inc()
		return
	}
	latency := v.FinishedAt.Sub(v.EnqueuedAt).Seconds()
	m.latency.With(shape).Observe(latency)
	m.byRuntime.With(runtime).Inc()
	m.sloRequests.With(tenant, class, "ok").Inc()
	m.sloLatency.With(tenant, class).Observe(latency)

	if v.Report != nil && v.Report.Imbalance != nil {
		imb := v.Report.Imbalance
		for _, rs := range imb.Ranks {
			rank := strconv.Itoa(rs.Rank)
			m.rankStage.With(rank, "bcastA").Add(rs.BcastASeconds)
			m.rankStage.With(rank, "bcastB").Add(rs.BcastBSeconds)
			m.rankStage.With(rank, "dgemm").Add(rs.DgemmSeconds)
			m.rankStage.With(rank, "ckpt").Add(rs.CkptSeconds)
			if rs.DgemmGFLOPS > 0 {
				m.rankGflops.With(rank).Set(rs.DgemmGFLOPS)
			}
		}
		if imb.ImbalanceRatio > 0 {
			m.imbalance.With(shape).Set(imb.ImbalanceRatio)
		}
		if imb.SlowestRank >= 0 {
			m.slowest.With(strconv.Itoa(imb.SlowestRank)).Inc()
		}
	}
}

// sloKey maps a job spec onto SLO series labels: empty tenant and class
// collapse to "default" so the objective report stays readable.
func sloKey(spec sched.JobSpec) (tenant, class string) {
	tenant, class = spec.Tenant, spec.Class
	if tenant == "" {
		tenant = "default"
	}
	if class == "" {
		class = "default"
	}
	return tenant, class
}
