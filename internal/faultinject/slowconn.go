package faultinject

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// slowConn is the SlowLink transit queue. Writes copy the frame into an
// in-order queue and return immediately — like a kernel socket buffer, a
// bandwidth-starved link never blocks the write syscall — and a single
// drain goroutine delivers queued frames to the wire, sleeping
// len(frame)/Rate (plus seed-deterministic jitter) before each one. A
// small control frame written behind a bulk transfer therefore arrives
// late by the whole queue debt, which is exactly how heartbeat round
// trips inflate on a real congested link.
//
// Write deadlines are swallowed: the enqueue never blocks, and letting an
// application deadline fire mid-drain would corrupt the model (real
// in-transit latency is invisible to the sender). Read deadlines pass
// through untouched.
//
// Close delivers what is still queued, unpaced and within flushTimeout,
// before it closes the wire: a real socket closed after a write still sends
// the written bytes ahead of its FIN.
type slowConn struct {
	net.Conn
	rate   int64
	jitter time.Duration

	mu     sync.Mutex
	rng    *rand.Rand
	q      [][]byte
	err    error // sticky drain error, surfaced on later Writes
	closed bool
	wake   chan struct{}

	closing   sync.Once
	stop      chan struct{} // closed by Close: the drain stops pacing
	drained   chan struct{} // closed when the drain goroutine returns
	closeWire error
}

// flushTimeout bounds how long Close spends delivering the queue to a peer
// that does not read.
const flushTimeout = time.Second

// newSlowConn wraps c with the rule's transit queue; a non-positive rate
// disables the wrapper.
func newSlowConn(c net.Conn, r Rule) net.Conn {
	if r.Rate <= 0 {
		return c
	}
	sc := &slowConn{
		Conn:    c,
		rate:    r.Rate,
		jitter:  r.Jitter,
		rng:     rand.New(rand.NewSource(r.Seed)),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	go sc.drain()
	return sc
}

func (sc *slowConn) Write(b []byte) (int, error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.err != nil {
		return 0, sc.err
	}
	if sc.closed {
		return 0, net.ErrClosed
	}
	sc.q = append(sc.q, append([]byte(nil), b...))
	sc.signal()
	return len(b), nil
}

func (sc *slowConn) Close() error {
	sc.closing.Do(func() {
		sc.mu.Lock()
		sc.closed = true
		sc.mu.Unlock()
		_ = sc.Conn.SetWriteDeadline(time.Now().Add(flushTimeout))
		close(sc.stop)
		<-sc.drained
		sc.closeWire = sc.Conn.Close()
	})
	return sc.closeWire
}

// SetWriteDeadline is a no-op: enqueueing never blocks, and transit
// latency must stay invisible to the sender.
func (sc *slowConn) SetWriteDeadline(time.Time) error { return nil }

// SetDeadline applies only the read half for the same reason.
func (sc *slowConn) SetDeadline(t time.Time) error { return sc.Conn.SetReadDeadline(t) }

// signal nudges the drain goroutine; callers hold sc.mu.
func (sc *slowConn) signal() {
	select {
	case sc.wake <- struct{}{}:
	default:
	}
}

func (sc *slowConn) drain() {
	defer close(sc.drained)
	for {
		sc.mu.Lock()
		for len(sc.q) == 0 {
			if sc.closed || sc.err != nil {
				sc.mu.Unlock()
				return
			}
			sc.mu.Unlock()
			select {
			case <-sc.wake:
			case <-sc.stop:
			}
			sc.mu.Lock()
		}
		b := sc.q[0]
		sc.q = sc.q[1:]
		cost := time.Duration(int64(len(b)) * int64(time.Second) / sc.rate)
		if sc.jitter > 0 {
			cost += time.Duration(sc.rng.Int63n(int64(sc.jitter)))
		}
		sc.mu.Unlock()
		pace := time.NewTimer(cost)
		select {
		case <-pace.C:
		case <-sc.stop:
			pace.Stop()
		}
		if _, err := sc.Conn.Write(b); err != nil {
			sc.mu.Lock()
			if sc.err == nil {
				sc.err = err
			}
			sc.mu.Unlock()
			return
		}
	}
}
