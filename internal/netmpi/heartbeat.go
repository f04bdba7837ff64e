package netmpi

import "time"

// Failure detection is split between the two ends of a connection. The
// sending side runs this heartbeat loop: every Config.HeartbeatInterval it
// writes an empty beat frame on every peer connection. The receiving side
// enforces Config.OpTimeout as a read deadline on every blocking frame
// read; any arriving frame — beats included — pushes the deadline forward.
// A peer that is alive but slow (deep in a local DGEMM, say) keeps beating
// and is never declared failed; a peer that died without closing its
// sockets goes silent and is declared failed after OpTimeout.
//
// Set OpTimeout to at least 3× HeartbeatInterval so a single delayed beat
// does not condemn a live peer.

// heartbeatLoop runs until the endpoint closes.
func (e *Endpoint) heartbeatLoop() {
	t := time.NewTicker(e.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-e.ctxDone():
			// Drain: the owner is abandoning this mesh; stop beating so
			// the goroutine never outlives the teardown.
			return
		case <-t.C:
			if e.poisoned.Load() {
				// A peer has been declared failed: this rank cannot
				// finish the collective algorithm, so go silent and let
				// peers' read deadlines propagate the failure.
				return
			}
			for _, rc := range e.conns {
				if rc != nil {
					rc.beat(e.cfg.HeartbeatInterval)
				}
			}
		}
	}
}

// beat best-effort writes one beat frame. It never blocks behind an
// in-progress bulk send (TryLock) and never declares a failure itself —
// write errors here will resurface on the next real operation, and the
// peer's read deadline is the authoritative detector.
// The beat payload is three float64s — the sender's clock in Unix seconds,
// plus the echo pair (peer's last beat timestamp and the local hold time)
// that turns the two heartbeat streams into an NTP-style offset exchange
// (see clocksync.go). The first field also feeds the one-way delay sample
// (PeerStats.HeartbeatDelaySeconds). Beats are CRC-checked like any other
// frame: a corrupt beat must not masquerade as liveness. The frame is built
// in pooled scratch and returned on every path, beats being the one
// timer-driven writer the leak-balance tests must also account for.
func (rc *rankConn) beat(interval time.Duration) {
	if !rc.wmu.TryLock() {
		return // a real frame is being written; that is liveness enough
	}
	defer rc.wmu.Unlock()
	c, _, failure := rc.snapshot()
	if failure != nil || c == nil {
		return
	}
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	now := nowUnixSeconds()
	echoTs, echoHold := rc.clk.echoState(now)
	ts := [3]float64{now, echoTs, echoHold}
	fb.b = appendFrame(fb.b[:0], heartbeatCommID, 0, ts[:])
	_ = c.SetWriteDeadline(time.Now().Add(interval))
	_, _ = c.Write(fb.b) // best-effort: the next real op surfaces errors
}

// nowUnixSeconds returns the local clock as float64 Unix seconds — the
// heartbeat timestamp representation (float64 keeps it frame-encodable;
// ~µs precision at current epochs, plenty for delay sampling).
func nowUnixSeconds() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}
