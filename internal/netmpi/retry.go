package netmpi

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Dial backoff: mesh setup redials a peer that is not listening yet with
// exponential backoff from firstBackoff, doubling up to maxBackoff, bounded
// overall by Config.DialTimeout.
const (
	firstBackoff = 10 * time.Millisecond
	maxBackoff   = 500 * time.Millisecond
)

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
func dialRetry(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := time.Now().Add(timeout)
	backoff := firstBackoff
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
