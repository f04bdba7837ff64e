package sched

// Transport-metric aggregation: the netmpi runner folds every mesh's
// per-peer endpoint counters (netmpi.Stats) into monotonic totals keyed by
// (rank, peer), and audits the partition model's predicted communication
// volume against the bytes the transport actually delivered, per shape.
// Scheduler.Metrics() surfaces both when the runner implements
// NetReporter, and the serving layer renders them as summagen_net_* and
// summagen_comm_volume_* series.

// NetPeerKey identifies one directed rank→peer connection.
type NetPeerKey struct {
	Rank, Peer int
}

// NetPeerCounters are the monotonic transport totals for one (rank, peer)
// pair, accumulated across all runs.
type NetPeerCounters struct {
	BytesSent, BytesRecv     uint64
	FramesSent, FramesRecv   uint64
	SendSeconds, RecvSeconds float64
	Heartbeats               uint64
	HeartbeatDelaySeconds    float64
	// CorruptFrames totals CRC failures observed, kept apart from the data
	// counters so the comm-volume audit stays exact under corruption.
	CorruptFrames uint64
}

// NetCounters is the transport-metric snapshot.
type NetCounters struct {
	// PerPeer holds one entry per (rank, peer) pair observed so far. The
	// cardinality is bounded by P² of the largest platform (≤ 16 series
	// for the 4-rank platforms).
	PerPeer map[NetPeerKey]NetPeerCounters
	// GrayDegraded totals ranks condemned by the gray-failure monitor
	// (NetmpiRunner.GrayFail) — each is a proactive replan trigger.
	GrayDegraded uint64
}

// CommVolume audits predicted vs observed communication volume for one
// partition shape: PredictedBytes is the partition model's broadcast
// volume (Layout.CommVolumes × 8 bytes), ObservedBytes the payload bytes
// the transport delivered on successful runs. Observed includes the small
// epoch-agreement traffic, so a healthy ratio sits just above 1.0; a ratio
// well above it means the transport moved data the model didn't predict —
// the paper's optimality claim turned into a checked invariant.
type CommVolume struct {
	PredictedBytes, ObservedBytes uint64
	// Runs counts the successful runs folded in; LastRatio is the most
	// recent run's observed/predicted ratio.
	Runs      uint64
	LastRatio float64
}

// Ratio returns the cumulative observed/predicted ratio (0 when nothing
// was predicted).
func (v CommVolume) Ratio() float64 {
	if v.PredictedBytes == 0 {
		return 0
	}
	return float64(v.ObservedBytes) / float64(v.PredictedBytes)
}

// NetReporter is optionally implemented by Runners that can report
// transport metrics (the netmpi runner). Scheduler.Metrics() folds the
// report into its snapshot.
type NetReporter interface {
	// NetMetrics returns deep-copied snapshots of the transport counters
	// and the per-shape comm-volume audit.
	NetMetrics() (NetCounters, map[string]CommVolume)
}
