package netmpi

import (
	"sync/atomic"
	"time"
)

// Transport metrics: every rankConn carries a peerCounters block updated
// on the send and recv paths, and Endpoint.Stats() snapshots them.
// Counters are atomics because the two paths run under different locks
// (wmu, rmu) and Stats takes neither.

// peerCounters accumulates one peer connection's transport totals.
type peerCounters struct {
	bytesSent  atomic.Int64 // payload bytes (frame headers excluded)
	bytesRecv  atomic.Int64
	framesSent atomic.Int64 // data frames (heartbeats excluded)
	framesRecv atomic.Int64
	// framesPosted counts the data frames a stage's post pass sent
	// (Endpoint.PostPanel), a share of framesSent; only the tests read it.
	framesPosted atomic.Int64
	sendNanos    atomic.Int64 // wall time inside blocking sends
	recvNanos    atomic.Int64 // wall time inside blocking frame reads
	heartbeats   atomic.Int64 // beat frames received
	hbDelay      atomic.Int64 // cumulative beat one-way delay, nanos

	spanBytesSent atomic.Int64 // span-shipping control payload (see span.go)
	spanBytesRecv atomic.Int64

	// Frames that failed the CRC32C check or the count cap, never counted
	// in bytesRecv/framesRecv: the comm-volume audit compares the
	// partition model against exactly-once algorithm traffic.
	corruptFrames atomic.Int64
}

// PeerStats is a snapshot of one peer connection's transport counters.
type PeerStats struct {
	// Peer is the remote world rank.
	Peer int
	// BytesSent/BytesRecv count payload bytes moved (headers and
	// heartbeats excluded — the same accounting as Breakdown).
	BytesSent, BytesRecv int64
	// FramesSent/FramesRecv count data frames.
	FramesSent, FramesRecv int64
	// SendSeconds/RecvSeconds total the wall time spent inside blocking
	// frame writes and reads (recv time includes waits that ended in a
	// heartbeat: it measures time blocked on the wire).
	SendSeconds, RecvSeconds float64
	// Retries is always 0: a connection error fails the peer, and nothing
	// reconnects. The field stays because the bench module reads it.
	Retries int64
	// Heartbeats counts beat frames received; HeartbeatDelaySeconds
	// totals their one-way delay (sender timestamp to local receipt —
	// meaningful when the clocks are shared, e.g. the loopback runner).
	Heartbeats            int64
	HeartbeatDelaySeconds float64
	// SpanBytesSent/SpanBytesRecv count span-shipping control payload —
	// deliberately excluded from BytesSent/BytesRecv so the comm-volume
	// audit keeps comparing the partition model against algorithm traffic.
	SpanBytesSent, SpanBytesRecv int64
	// ClockOffsetSeconds is the NTP-style estimate of the peer's clock
	// minus this rank's clock, from the windowed min-RTT filter over the
	// heartbeat exchange; ClockUncertaintySeconds bounds its error
	// (± seconds, half the filtered round trip). Valid only when
	// ClockSamples > 0 — zero samples means no exchange completed and the
	// zeros carry no information.
	ClockOffsetSeconds      float64
	ClockUncertaintySeconds float64
	ClockSamples            int64
	// CorruptFrames counts frames that failed the CRC check (at most one:
	// the first fails the peer), excluded from the Bytes/Frames data
	// counters so the comm-volume audit stays exact under injected
	// corruption.
	CorruptFrames int64
	// RTT signals from the heartbeat clock exchange, for gray-failure
	// detection: the EWMA (α = 1/8), the p99 over a 128-sample ring, and
	// the windowed minimum that serves as the healthy baseline. Valid
	// only when ClockSamples > 0.
	RTTEWMASeconds float64
	RTTP99Seconds  float64
	RTTMinSeconds  float64
	// GoodputBytesPerSec is received payload per second of time spent
	// blocked on the wire (BytesRecv / RecvSeconds) — a link that is up
	// but crawling shows it collapsing while RTT inflates.
	GoodputBytesPerSec float64
}

// Stats is a point-in-time snapshot of an endpoint's transport counters.
type Stats struct {
	// Rank is this endpoint's world rank.
	Rank int
	// Peers holds one entry per established peer connection, ascending by
	// peer rank.
	Peers []PeerStats
}

// TotalRecvBytes sums the payload bytes received over all peers — the
// observed side of the comm-volume audit.
func (s Stats) TotalRecvBytes() int64 {
	var total int64
	for _, p := range s.Peers {
		total += p.BytesRecv
	}
	return total
}

// Stats snapshots the endpoint's transport counters.
func (e *Endpoint) Stats() Stats {
	st := Stats{Rank: e.rank}
	for peer, rc := range e.conns {
		if rc == nil {
			continue
		}
		offset, uncertainty, samples := rc.clk.estimate()
		ewma, p99, minRTT := rc.clk.rttEstimate()
		ps := PeerStats{
			Peer:                    peer,
			BytesSent:               rc.stats.bytesSent.Load(),
			BytesRecv:               rc.stats.bytesRecv.Load(),
			FramesSent:              rc.stats.framesSent.Load(),
			FramesRecv:              rc.stats.framesRecv.Load(),
			SendSeconds:             time.Duration(rc.stats.sendNanos.Load()).Seconds(),
			RecvSeconds:             time.Duration(rc.stats.recvNanos.Load()).Seconds(),
			Heartbeats:              rc.stats.heartbeats.Load(),
			HeartbeatDelaySeconds:   time.Duration(rc.stats.hbDelay.Load()).Seconds(),
			SpanBytesSent:           rc.stats.spanBytesSent.Load(),
			SpanBytesRecv:           rc.stats.spanBytesRecv.Load(),
			ClockOffsetSeconds:      offset,
			ClockUncertaintySeconds: uncertainty,
			ClockSamples:            samples,
			CorruptFrames:           rc.stats.corruptFrames.Load(),
			RTTEWMASeconds:          ewma,
			RTTP99Seconds:           p99,
			RTTMinSeconds:           minRTT,
		}
		if ps.RecvSeconds > 0 {
			ps.GoodputBytesPerSec = float64(ps.BytesRecv) / ps.RecvSeconds
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}
