package netmpi

import (
	"sort"
	"sync"
)

// NTP-style clock alignment over the heartbeat exchange.
//
// Both ends of a peer connection beat independently, so each beat can
// carry an echo of the last beat received in the other direction. With
// four timestamps per exchange — in the classic NTP naming, all in
// seconds:
//
//	t1  this side sent a beat              (local clock)
//	t2  the peer received it               (peer clock, = t3 − hold)
//	t3  the peer sent its next beat        (peer clock, carried as sendTs)
//	t4  that beat arrived here             (local clock)
//
// the peer's beat carries (sendTs = t3, echoTs = t1, echoHold = t3 − t2).
// The hold is measured entirely on the peer's clock and t4 − t1 entirely
// on ours, so the round trip
//
//	rtt = (t4 − t1) − hold
//
// is skew-free to first order, and the standard offset estimate
//
//	offset = ((t2 − t1) + (t3 − t4)) / 2    (peer clock − local clock)
//
// has error bounded by ±rtt/2 whatever the latency asymmetry. Each
// connection keeps a sliding window of samples and reports the offset of
// the minimum-RTT sample — NTP's clock filter — with rtt/2 as the
// uncertainty.

// clockWindow bounds the sample window. Old samples age out so a dilated
// early estimate (slow start, a GC pause during the exchange) cannot pin
// the offset forever.
const clockWindow = 16

// rttWindow bounds the larger RTT distribution ring kept for the
// gray-failure signals (EWMA + p99). 128 samples at typical heartbeat
// intervals spans seconds-to-minutes of history — enough for a p99 that
// means something, small enough to sort on demand.
const rttWindow = 128

// rttAlpha is the EWMA smoothing factor (TCP's classic 1/8): heavy enough
// that one GC pause cannot condemn a peer, light enough that a genuinely
// sick link drags the average up within a handful of beats.
const rttAlpha = 0.125

// clockSample is one completed beat exchange.
type clockSample struct {
	offset float64 // peer clock − local clock, seconds
	rtt    float64 // round trip net of the peer's hold, seconds
}

// clockSync is one peer connection's clock-alignment state: the echo
// bookkeeping consumed by outgoing beats and the sample window the offset
// estimate is computed from. A mutex (not atomics) guards it because the
// fields update together; both paths hold it for nanoseconds.
type clockSync struct {
	mu sync.Mutex
	// Echo state: the sender timestamp of the most recent beat received
	// from the peer and the local receipt time, replayed in the next
	// outgoing beat so the peer can close its measurement loop.
	lastPeerTs  float64
	lastRxLocal float64
	// window is a ring of the most recent completed samples.
	window [clockWindow]clockSample
	n      int // samples currently stored (≤ clockWindow)
	next   int // ring write index
	total  int64

	// Gray-failure signals over the same exchange: an EWMA of the RTT and
	// a larger ring feeding a p99, consumed by internal/grayfail through
	// PeerStats. The min-RTT filter above answers "what is the clock
	// offset"; these answer "is this link getting sick".
	ewmaRTT  float64
	ewmaInit bool
	rttRing  [rttWindow]float64
	rttN     int
	rttNext  int
}

// noteBeat records an incoming beat: it always refreshes the echo state,
// and for beats that echo one of ours it adds an offset sample.
// Negative round trips (clock steps mid-exchange, duplicated echoes) are
// discarded rather than clamped — a fabricated zero-RTT
// sample would win the min-RTT filter with a corrupt offset.
func (cs *clockSync) noteBeat(sendTs, echoTs, echoHold, nowLocal float64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.lastPeerTs = sendTs
	cs.lastRxLocal = nowLocal
	if echoTs == 0 {
		return // nothing of ours echoed yet
	}
	t1, t3, t4 := echoTs, sendTs, nowLocal
	rtt := (t4 - t1) - echoHold
	if rtt < 0 {
		return
	}
	t2 := t3 - echoHold
	cs.window[cs.next] = clockSample{offset: ((t2 - t1) + (t3 - t4)) / 2, rtt: rtt}
	cs.next = (cs.next + 1) % clockWindow
	if cs.n < clockWindow {
		cs.n++
	}
	cs.total++
	if cs.ewmaInit {
		cs.ewmaRTT += rttAlpha * (rtt - cs.ewmaRTT)
	} else {
		cs.ewmaRTT, cs.ewmaInit = rtt, true
	}
	cs.rttRing[cs.rttNext] = rtt
	cs.rttNext = (cs.rttNext + 1) % rttWindow
	if cs.rttN < rttWindow {
		cs.rttN++
	}
}

// echoState returns the fields for the next outgoing beat: the last peer
// timestamp and how long it has been held locally. Zeros before the first
// beat arrives — the wire form of "nothing to echo".
func (cs *clockSync) echoState(nowLocal float64) (echoTs, echoHold float64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.lastPeerTs == 0 {
		return 0, 0
	}
	return cs.lastPeerTs, nowLocal - cs.lastRxLocal
}

// estimate returns the windowed min-RTT offset estimate, its uncertainty
// bound (± seconds), and the number of samples ever taken. samples == 0
// means no estimate: the caller should treat the clocks as unalignable
// (or, on a shared clock, aligned) rather than trust the zeros.
func (cs *clockSync) estimate() (offset, uncertainty float64, samples int64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.n == 0 {
		return 0, 0, cs.total
	}
	best := cs.window[0]
	for i := 1; i < cs.n; i++ {
		if cs.window[i].rtt < best.rtt {
			best = cs.window[i]
		}
	}
	return best.offset, best.rtt / 2, cs.total
}

// rttEstimate returns the gray-failure RTT signals: the EWMA, the p99 over
// the distribution ring, and the windowed minimum (the healthy baseline
// the other two are judged against). All zero until the first completed
// exchange — callers must gate on samples from estimate().
func (cs *clockSync) rttEstimate() (ewma, p99, min float64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.rttN == 0 {
		return 0, 0, 0
	}
	sorted := make([]float64, cs.rttN)
	copy(sorted, cs.rttRing[:cs.rttN])
	sort.Float64s(sorted)
	min = sorted[0]
	idx := (len(sorted)*99 + 99) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	p99 = sorted[idx]
	return cs.ewmaRTT, p99, min
}
