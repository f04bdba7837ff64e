package netmpi

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Retry policy: the initial mesh dial and transient-error reconnects both
// use exponential backoff starting at Config.RetryBackoff and capped at
// maxBackoff, bounded overall by Config.DialTimeout.

const maxBackoff = 500 * time.Millisecond

// nextBackoff doubles d up to the cap.
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// dialRetry dials addr until it succeeds, the timeout budget is spent, or
// ctx (which may be nil) is canceled, backing off exponentially between
// attempts (peers may start in any order, and transient refusals should
// not burn the whole budget).
func dialRetry(ctx context.Context, addr string, timeout, backoff0 time.Duration) (net.Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := time.Now().Add(timeout)
	backoff := backoff0
	for {
		d := net.Dialer{Timeout: timeout}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("dial canceled: %w", ctx.Err())
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("retries exhausted after %v: %w", timeout, err)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("dial canceled: %w", ctx.Err())
		case <-time.After(backoff):
		}
		backoff = nextBackoff(backoff)
	}
}

// reconnectBudget bounds one reconnect attempt. DialTimeout is sized for
// cold mesh setup (peers starting in any order); once the mesh has been
// up, a live peer re-establishes within its backoff, so a reconnect that
// takes longer than the failure detector's OpTimeout would silently
// extend the bounded-detection promise. Use the smaller of the two.
func (e *Endpoint) reconnectBudget() time.Duration {
	if e.cfg.OpTimeout > 0 && e.cfg.OpTimeout < e.cfg.DialTimeout {
		return e.cfg.OpTimeout
	}
	return e.cfg.DialTimeout
}

// redial re-establishes the outgoing connection to a lower-ranked peer
// after a transient error observed at generation gen, re-running the
// hello/probe handshake so the peer's accept loop swaps the new connection
// in. The handshake probes carry the corrupt-frame re-requests of both
// sides: ours rides the outgoing probe, the peer's comes back on its reply
// and is served from the replay buffer before the connection is published.
func (e *Endpoint) redial(rc *rankConn, gen int, backoff time.Duration) error {
	select {
	case <-e.ctxDone():
		return fmt.Errorf("redial canceled: %w", e.cfg.Ctx.Err())
	case <-e.done:
		return net.ErrClosed
	case <-time.After(backoff):
	}
	c, err := dialRetry(e.cfg.Ctx, e.cfg.Addrs[rc.peer], e.reconnectBudget(), e.cfg.RetryBackoff)
	if err != nil {
		return err
	}
	mine := rc.takeRerequest()
	peerRR, err := e.dialHandshake(c, mine, e.reconnectBudget())
	if err != nil {
		c.Close()
		if mine.present {
			// Not delivered: restage so the next successful reconnect
			// still carries it.
			rc.setRerequest(mine.key)
		}
		return err
	}
	wrapped := e.prepConn(rc.peer, c)
	if peerRR.present {
		rc.serveRetransmit(wrapped, peerRR)
	}
	if !rc.replace(wrapped) {
		_, _, failure := rc.snapshot()
		return failure
	}
	return nil
}

// reconnect restores rc after a transient error observed at generation
// gen. The side that originally dialed (this rank higher than the peer)
// redials; the accepting side waits for the peer's redial to be swapped in
// by the accept loop. Returns nil once a connection newer than gen is in
// place.
func (e *Endpoint) reconnect(rc *rankConn, gen, attempt int) error {
	rc.mu.Lock()
	if rc.failure != nil {
		f := rc.failure
		rc.mu.Unlock()
		return f
	}
	if rc.gen > gen {
		rc.mu.Unlock()
		return nil // another goroutine already swapped in a fresh conn
	}
	swapped := rc.swapped
	rc.mu.Unlock()

	if rc.peer < e.rank {
		backoff := e.cfg.RetryBackoff
		for i := 0; i < attempt; i++ {
			backoff = nextBackoff(backoff)
		}
		return e.redial(rc, gen, backoff)
	}
	// The peer dials us: wait for the accept loop to install the
	// replacement, bounded by the reconnect budget.
	budget := e.reconnectBudget()
	select {
	case <-swapped:
		rc.mu.Lock()
		defer rc.mu.Unlock()
		if rc.failure != nil {
			return rc.failure
		}
		return nil
	case <-e.done:
		return net.ErrClosed
	case <-e.ctxDone():
		return fmt.Errorf("reconnect wait canceled: %w", e.cfg.Ctx.Err())
	case <-time.After(budget):
		return fmt.Errorf("peer did not reconnect within %v", budget)
	}
}
