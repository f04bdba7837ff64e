// Package netmpi is a fault-tolerant TCP message-passing runtime for
// running SummaGen across OS processes or machines — the paper's stated
// future work ("we will study the efficiency of SummaGen for
// distributed-memory nodes and large clusters"). It implements the same
// Proc/Comm contract as the in-process runtime (see internal/core), so the
// unmodified engine runs over real sockets.
//
// Topology: a full mesh. Rank i listens on Addrs[i]; every pair of ranks
// holds one TCP connection (the higher rank dials the lower). Frames are
// length-prefixed binary (see frame.go). Collectives are built from
// point-to-point messages; broadcast uses the binomial tree of MPICH.
//
// Fault model: at the scales the roadmap targets, dead peers and
// stragglers are the norm, so every blocking operation is bounded.
// Config.OpTimeout puts a read/write deadline on each frame; the heartbeat
// loop (heartbeat.go) keeps live-but-slow peers from tripping it. Any
// detected failure — reset, silence past the deadline, exhausted reconnect
// budget — permanently marks the peer connection failed and surfaces as a
// typed *PeerFailedError from the collectives instead of a hang.
// Transient socket errors are retried with exponential-backoff reconnect
// (retry.go) up to Config.MaxRetries. Config.WrapConn lets tests inject
// deterministic faults (see internal/faultinject).
package netmpi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/slab"
)

// Config describes one rank's view of the world.
type Config struct {
	// Rank of this endpoint.
	Rank int
	// Addrs holds one listen address per rank (host:port). This rank
	// listens on Addrs[Rank] unless Listener is supplied.
	Addrs []string
	// Listener optionally supplies a pre-bound listener for this rank
	// (used by tests with :0 addresses).
	Listener net.Listener
	// DialTimeout bounds each outgoing connection attempt (default 10 s);
	// dialing retries with exponential backoff until the deadline to
	// tolerate peer start-up order.
	DialTimeout time.Duration
	// OpTimeout bounds each blocking frame read or write on a peer
	// connection. A peer that produces no frame (not even a heartbeat)
	// for OpTimeout is declared failed. Zero disables deadlines: a dead
	// peer can then block a collective forever.
	OpTimeout time.Duration
	// HeartbeatInterval, when positive, makes the endpoint write an empty
	// beat frame to every peer at this interval so that a slow-but-alive
	// peer keeps resetting its peers' read deadlines. Use with OpTimeout
	// of at least 3× the interval.
	HeartbeatInterval time.Duration
	// MaxRetries is the number of reconnect attempts made when an
	// operation hits a transient socket error (reset, EOF). Zero means
	// fail fast: the first error declares the peer failed.
	MaxRetries int
	// RetryBackoff is the initial reconnect backoff (default 10 ms,
	// doubling per attempt, capped at 500 ms).
	RetryBackoff time.Duration
	// WrapConn, when non-nil, wraps every established peer connection
	// (including reconnects). Test hook for deterministic fault
	// injection; see internal/faultinject.
	WrapConn func(peer int, c net.Conn) net.Conn
	// WireVersion has no effect: there is one wire protocol, and every
	// frame carries a CRC32C trailer. The field remains only because the
	// bench module still sets it.
	WireVersion int
	// Epoch tags this mesh generation. Hellos carry it, and a peer whose
	// epoch differs is rejected at connect time — a rank resuming a
	// recovered job against a stale (pre-failure) communicator can never
	// join the rebuilt mesh. AgreeEpoch additionally runs a collective
	// barrier-agreement over the whole world.
	Epoch uint32
	// Ctx, when non-nil, aborts mesh dialing, reconnect backoff and
	// reconnect waits once canceled — the drain path: a shutting-down
	// service must not leak goroutines parked in redials. Canceling does
	// not tear down an established, healthy mesh; use Close for that.
	Ctx context.Context
}

// withDefaults returns cfg with documented defaults applied.
func (cfg Config) withDefaults() Config {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	return cfg
}

// Endpoint is one rank of a connected world.
type Endpoint struct {
	cfg   Config
	rank  int
	size  int
	conns []*rankConn // indexed by peer rank; nil at self

	listener net.Listener
	done     chan struct{}
	closing  sync.Once
	closeErr error

	// poisoned flips once any peer is declared failed. A poisoned
	// endpoint stops heartbeating: this rank can no longer complete the
	// collective algorithm, so its silence propagates the failure to the
	// rest of the mesh within one OpTimeout per hop instead of letting
	// live-but-stuck ranks keep each other's deadlines fed forever.
	poisoned atomic.Bool

	// epochRejects counts reconnect hellos dropped for carrying a stale
	// epoch (see Stats).
	epochRejects atomic.Int64

	mu          sync.Mutex
	comms       map[uint32]*Comm // by id, one per rank set Split has seen; never evicted, as each tag counter must stay in step
	computeSecs float64
	commSecs    float64
}

// rankConn wraps one peer connection with framed, tag-matched I/O and the
// failure/reconnect state machine. A connection moves through generations:
// each successful reconnect bumps gen and swaps c; a detected failure is
// permanent and poisons every subsequent operation on the peer.
type rankConn struct {
	ep   *Endpoint
	peer int

	mu      sync.Mutex
	c       net.Conn
	gen     int
	failure *PeerFailedError
	swapped chan struct{} // closed on every replace and on failure

	wmu sync.Mutex // serializes writers

	rmu     sync.Mutex // serializes the demand-driven reader
	pending map[frameKey][][]float64
	rscr    frameScratch // header/trailer read buffer, guarded by rmu

	// replay holds copies of recently sent small frames so a peer whose
	// CRC check failed can ask for a retransmit through the reconnect
	// handshake (FIFO, bounded; see recordReplay).
	replayMu sync.Mutex
	replay   []replayEntry

	// rrPending is the frame the next reconnect handshake should ask the
	// peer to retransmit; rrAttempts bounds re-requests per frame key.
	rrMu       sync.Mutex
	rrPending  rerequest
	rrAttempts map[frameKey]int

	stats peerCounters
	clk   clockSync
}

// replayEntry is one retained sent frame.
type replayEntry struct {
	key  frameKey
	data []float64
}

// Re-request bounds. Frames above replayMaxFrameBytes are not retained —
// the engine may reuse its send buffers, so retention must copy, and the
// copy cost has to stay off the bulk hot path. A corrupt frame that was
// never retained (or was evicted from the FIFO) simply escalates to
// job-level survivor-replan recovery via the receiver's op deadline, which
// still converges to the fault-free digest. maxRerequests bounds how many
// times one (comm, tag) key may be re-requested before the connection is
// declared failed outright.
const (
	replayDepth         = 8
	replayMaxFrameBytes = 64 << 10
	maxRerequests       = 3
)

type frameKey struct {
	comm uint32
	tag  uint32
}

// snapshot returns the current connection, its generation, and any
// permanent failure.
func (rc *rankConn) snapshot() (net.Conn, int, *PeerFailedError) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.c, rc.gen, rc.failure
}

// fail permanently marks the peer failed (first cause wins), closes the
// connection so any other blocked user wakes, and returns the error.
func (rc *rankConn) fail(op string, cause error) *PeerFailedError {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.failure == nil {
		rc.failure = &PeerFailedError{Rank: rc.peer, Op: op, Err: cause}
		if rc.c != nil {
			rc.c.Close()
		}
		close(rc.swapped)
		rc.ep.poisoned.Store(true)
	}
	return rc.failure
}

// replace swaps in a fresh connection, waking waiters. Returns false when
// the peer is already failed (the new connection is closed).
func (rc *rankConn) replace(c net.Conn) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.failure != nil {
		c.Close()
		return false
	}
	if rc.c != nil {
		rc.c.Close()
	}
	rc.c = c
	rc.gen++
	rc.stats.reconnects.Add(1)
	close(rc.swapped)
	rc.swapped = make(chan struct{})
	return true
}

// recordReplay retains a copy of a just-sent frame for possible
// retransmission. Only frames up to replayMaxFrameBytes are kept: the
// caller's buffer cannot be aliased (the engine reuses send buffers), and
// copying bulk payloads would tax the hot path the re-request feature
// exists to protect. The copy lands in the evicted entry's backing array
// once the FIFO is full, so a warm connection retains without allocating.
func (rc *rankConn) recordReplay(comm, tag uint32, data []float64) {
	if 8*len(data) > replayMaxFrameBytes {
		return
	}
	rc.replayMu.Lock()
	var buf []float64
	if len(rc.replay) == replayDepth {
		buf = rc.replay[0].data[:0]
		copy(rc.replay, rc.replay[1:])
		rc.replay = rc.replay[:replayDepth-1]
	}
	rc.replay = append(rc.replay, replayEntry{key: frameKey{comm, tag}, data: append(buf, data...)})
	rc.replayMu.Unlock()
}

// replayLookup copies the oldest retained frame matching key into recycled
// staging the caller must put back (nil when none is retained). A copy,
// because the retained buffer is overwritten by the next eviction. Oldest
// first: if the (rare) same key was sent twice back to back, the corrupt one
// a receiver asks about is the earlier of the two still retained.
func (rc *rankConn) replayLookup(key frameKey) []float64 {
	rc.replayMu.Lock()
	defer rc.replayMu.Unlock()
	for _, e := range rc.replay {
		if e.key == key {
			st := slab.Get(len(e.data))
			copy(st, e.data)
			return st
		}
	}
	return nil
}

// noteCorrupt bumps and returns the re-request count for a frame key.
func (rc *rankConn) noteCorrupt(key frameKey) int {
	rc.rrMu.Lock()
	defer rc.rrMu.Unlock()
	if rc.rrAttempts == nil {
		rc.rrAttempts = map[frameKey]int{}
	}
	rc.rrAttempts[key]++
	return rc.rrAttempts[key]
}

// setRerequest stages a frame key for the next reconnect handshake to ask
// the peer to retransmit.
func (rc *rankConn) setRerequest(key frameKey) {
	rc.rrMu.Lock()
	rc.rrPending = rerequest{key: key, present: true}
	rc.rrMu.Unlock()
}

// takeRerequest consumes the staged re-request (exactly-once: a retransmit
// arriving twice would corrupt collective ordering).
func (rc *rankConn) takeRerequest() rerequest {
	rc.rrMu.Lock()
	rr := rc.rrPending
	rc.rrPending = rerequest{}
	rc.rrMu.Unlock()
	return rr
}

// serveRetransmit answers a peer's re-request on a not-yet-published
// connection. Writing before replace() publishes the conn needs no write
// lock and guarantees the replayed frame precedes any new traffic on the
// fresh stream. A miss (frame too large to retain, or evicted) writes
// nothing: the receiver's op deadline then escalates to job-level
// recovery.
func (rc *rankConn) serveRetransmit(c net.Conn, rr rerequest) {
	data := rc.replayLookup(rr.key)
	if data == nil {
		return
	}
	defer slab.Put(data)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	if d := rc.ep.cfg.OpTimeout; d > 0 {
		_ = c.SetWriteDeadline(time.Now().Add(d))
		defer func() { _ = c.SetWriteDeadline(time.Time{}) }()
	}
	if _, err := writeFrame(c, fb, rr.key.comm, rr.key.tag, data); err == nil {
		rc.stats.retransmitFrames.Add(1)
		rc.stats.retransmitBytes.Add(int64(8 * len(data)))
	}
}

// Dial connects the rank into the mesh and blocks until every pairwise
// connection is up.
func Dial(cfg Config) (*Endpoint, error) {
	cfg = cfg.withDefaults()
	size := len(cfg.Addrs)
	if size < 1 {
		return nil, fmt.Errorf("netmpi: no addresses")
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("netmpi: rank %d outside [0,%d)", cfg.Rank, size)
	}
	ep := &Endpoint{
		cfg:   cfg,
		rank:  cfg.Rank,
		size:  size,
		conns: make([]*rankConn, size),
		done:  make(chan struct{}),
		comms: map[uint32]*Comm{},
	}
	if size == 1 {
		return ep, nil
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("netmpi: rank %d listen: %w", cfg.Rank, err)
		}
	}
	ep.listener = ln

	var wg sync.WaitGroup
	errs := make([]error, 2)
	// Bound the whole mesh setup — accepts included — by DialTimeout: a
	// rank that never shows up must fail the job, not hang it in Accept.
	type deadlineListener interface{ SetDeadline(time.Time) error }
	if dl, ok := ln.(deadlineListener); ok && cfg.DialTimeout > 0 {
		_ = dl.SetDeadline(time.Now().Add(cfg.DialTimeout))
	}
	// A canceled context aborts the accept side too, by expiring the
	// listener deadline immediately.
	setupDone := make(chan struct{})
	defer close(setupDone)
	if cfg.Ctx != nil {
		go func() {
			select {
			case <-cfg.Ctx.Done():
				if dl, ok := ln.(deadlineListener); ok {
					_ = dl.SetDeadline(time.Now())
				}
			case <-setupDone:
			}
		}()
	}
	// Accept connections from all higher ranks.
	expectAccepts := size - 1 - cfg.Rank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < expectAccepts; i++ {
			c, err := ln.Accept()
			if err != nil {
				errs[0] = fmt.Errorf("netmpi: rank %d accept (waiting for %d higher ranks): %w",
					cfg.Rank, expectAccepts-i, err)
				return
			}
			// One deadline bounds the hello and the probe behind it; the
			// handshake clears it.
			c.SetReadDeadline(time.Now().Add(cfg.DialTimeout))
			peer, epoch, err := readHello(c)
			if err != nil {
				errs[0] = fmt.Errorf("netmpi: rank %d hello: %w", cfg.Rank, err)
				return
			}
			if peer <= cfg.Rank || peer >= size {
				errs[0] = fmt.Errorf("netmpi: rank %d: unexpected hello from rank %d", cfg.Rank, peer)
				return
			}
			if epoch != cfg.Epoch {
				c.Close()
				errs[0] = fmt.Errorf("netmpi: rank %d: hello from rank %d carries epoch %d, this mesh is epoch %d (stale communicator)",
					cfg.Rank, peer, epoch, cfg.Epoch)
				return
			}
			if _, herr := ep.acceptHandshake(c, nil); herr != nil {
				c.Close()
				errs[0] = fmt.Errorf("netmpi: rank %d handshake with rank %d: %w", cfg.Rank, peer, herr)
				return
			}
			ep.conns[peer] = ep.newRankConn(peer, c)
		}
	}()
	// Dial all lower ranks.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for peer := 0; peer < cfg.Rank; peer++ {
			c, err := dialRetry(cfg.Ctx, cfg.Addrs[peer], cfg.DialTimeout, cfg.RetryBackoff)
			if err != nil {
				errs[1] = &PeerFailedError{Rank: peer, Op: "dial",
					Err: fmt.Errorf("rank %d dialing %s: %w", cfg.Rank, cfg.Addrs[peer], err)}
				return
			}
			if _, herr := ep.dialHandshake(c, rerequest{}, cfg.DialTimeout); herr != nil {
				c.Close()
				errs[1] = fmt.Errorf("netmpi: rank %d hello to %d: %w", cfg.Rank, peer, herr)
				return
			}
			ep.conns[peer] = ep.newRankConn(peer, c)
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			ep.Close()
			return nil, err
		}
	}
	// The mesh is up: clear the setup deadline and keep accepting so
	// peers can reconnect after transient errors, and start beating if
	// configured.
	if dl, ok := ln.(deadlineListener); ok {
		_ = dl.SetDeadline(time.Time{})
	}
	go ep.acceptLoop()
	if cfg.HeartbeatInterval > 0 {
		go ep.heartbeatLoop()
	}
	return ep, nil
}

// prepConn applies socket options and the fault-injection hook to a raw
// peer connection.
func (e *Endpoint) prepConn(peer int, c net.Conn) net.Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if e.cfg.WrapConn != nil {
		c = e.cfg.WrapConn(peer, c)
	}
	return c
}

func (e *Endpoint) newRankConn(peer int, c net.Conn) *rankConn {
	return &rankConn{
		ep:      e,
		peer:    peer,
		c:       e.prepConn(peer, c),
		swapped: make(chan struct{}),
		pending: map[frameKey][][]float64{},
	}
}

// The handshake: the dialer writes its hello and its probe in one Write;
// the acceptor reads both and answers with its own probe. Each probe
// carries the frame its sender wants retransmitted, if any. A side that
// receives anything but a probe, or nothing before its deadline, refuses
// the connection.

// dialHandshake writes the hello and this side's probe (carrying rr) on a
// freshly dialed conn, then reads the acceptor's probe within budget.
// Returns the peer's re-request.
func (e *Endpoint) dialHandshake(c net.Conn, rr rerequest, budget time.Duration) (rerequest, error) {
	if _, err := c.Write(appendProbe(helloBytes(e.rank, e.cfg.Epoch), rr)); err != nil {
		return rerequest{}, err
	}
	_ = c.SetReadDeadline(time.Now().Add(budget))
	peerRR, err := readProbe(c)
	_ = c.SetReadDeadline(time.Time{})
	return peerRR, err
}

// acceptHandshake completes the acceptor's side after the hello has been
// read, under the read deadline the hello was read with: read the dialer's
// probe, clear the deadline, and answer with our own probe (carrying rc's
// pending re-request when rc is an established conn being re-dialed; nil
// rc means initial mesh setup). Returns the dialer's re-request.
func (e *Endpoint) acceptHandshake(c net.Conn, rc *rankConn) (rerequest, error) {
	rr, err := readProbe(c)
	if err != nil {
		return rerequest{}, err
	}
	_ = c.SetReadDeadline(time.Time{})
	var mine rerequest
	if rc != nil {
		mine = rc.takeRerequest()
	}
	fb := getFrameBuf()
	fb.b = appendProbe(fb.b[:0], mine)
	_, werr := c.Write(fb.b)
	putFrameBuf(fb)
	if werr != nil {
		if rc != nil && mine.present {
			rc.setRerequest(mine.key)
		}
		return rerequest{}, werr
	}
	return rr, nil
}

// acceptLoop services reconnects after the initial mesh is up: a higher
// rank that lost its connection redials and re-sends its hello, and the
// fresh connection is swapped in under the existing rankConn.
func (e *Endpoint) acceptLoop() {
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		go e.handleReconnect(c)
	}
}

func (e *Endpoint) handleReconnect(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(e.cfg.DialTimeout))
	peer, epoch, err := readHello(c)
	if err != nil {
		c.Close()
		return
	}
	// A stale-epoch redial is a rank still running a pre-recovery mesh
	// generation; dropping the connection (rather than swapping it in)
	// leaves its collectives to time out against the dead communicator.
	if peer <= e.rank || peer >= e.size || e.conns[peer] == nil || epoch != e.cfg.Epoch {
		if peer > e.rank && peer < e.size && e.conns[peer] != nil && epoch != e.cfg.Epoch {
			e.epochRejects.Add(1)
		}
		c.Close()
		return
	}
	rc := e.conns[peer]
	rr, err := e.acceptHandshake(c, rc)
	if err != nil {
		c.Close()
		return
	}
	wrapped := e.prepConn(peer, c)
	if rr.present {
		// Serve the dialer's re-request before publishing: the replayed
		// frame must precede any new traffic on the fresh stream.
		rc.serveRetransmit(wrapped, rr)
	}
	rc.replace(wrapped)
}

// helloBytes encodes the 8-byte hello frame: [rank u32][epoch u32], both
// little-endian. The epoch lets a mesh generation reject connections from
// ranks still living in a previous (pre-recovery) generation.
func helloBytes(rank int, epoch uint32) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(rank))
	binary.LittleEndian.PutUint32(b[4:], epoch)
	return b[:]
}

// readHello reads and decodes one hello frame.
func readHello(c net.Conn) (rank int, epoch uint32, err error) {
	var b [8]byte
	if _, err := io.ReadFull(c, b[:]); err != nil {
		return 0, 0, err
	}
	return int(binary.LittleEndian.Uint32(b[:4])), binary.LittleEndian.Uint32(b[4:]), nil
}

// ctxDone returns the config context's done channel, or a nil channel
// (never ready) when no context was supplied.
func (e *Endpoint) ctxDone() <-chan struct{} {
	if e.cfg.Ctx == nil {
		return nil
	}
	return e.cfg.Ctx.Done()
}

// Close tears down all connections and the listener. It is idempotent.
func (e *Endpoint) Close() error {
	e.closing.Do(func() {
		close(e.done)
		for _, rc := range e.conns {
			if rc == nil {
				continue
			}
			rc.mu.Lock()
			if rc.c != nil {
				if err := rc.c.Close(); err != nil && e.closeErr == nil {
					e.closeErr = err
				}
			}
			rc.mu.Unlock()
		}
		if e.listener != nil {
			if err := e.listener.Close(); err != nil && e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}

// FailPeer permanently marks a peer connection failed with the given
// cause, waking every operation blocked on it with a *PeerFailedError.
// Gray-failure monitors (see internal/grayfail) use it to convert
// cross-peer evidence of a degraded — slow but alive — rank into an
// immediate typed failure, triggering survivor-replan recovery long before
// any op deadline would fire. Returns false when this endpoint has no
// connection to the rank (out of range, or self).
func (e *Endpoint) FailPeer(rank int, cause error) bool {
	if rank < 0 || rank >= e.size || e.conns[rank] == nil {
		return false
	}
	e.conns[rank].fail("grayfail", cause)
	return true
}

// Healthy reports whether the endpoint is open and no peer connection has
// been declared failed. An endpoint that is not healthy can never finish
// another collective; one that is can — reconnects after transient errors
// included — which is what lets an owner keep a mesh for its next run.
func (e *Endpoint) Healthy() bool {
	select {
	case <-e.done:
		return false
	default:
		return !e.poisoned.Load()
	}
}

// Rank returns this endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the world size.
func (e *Endpoint) Size() int { return e.size }

// Compute records local computation time (the engine calls this with
// measured wall durations).
func (e *Endpoint) Compute(d, flops float64, label string) {
	e.mu.Lock()
	e.computeSecs += d
	e.mu.Unlock()
}

// Breakdown returns the accumulated compute/communication seconds and the
// data bytes received by this rank, the sum of the peers' BytesRecv
// (Stats().TotalRecvBytes()).
func (e *Endpoint) Breakdown() (computeSecs, commSecs float64, bytesMoved int64) {
	for _, rc := range e.conns {
		if rc != nil {
			bytesMoved += rc.stats.bytesRecv.Load()
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.computeSecs, e.commSecs, bytesMoved
}

// writevMinPayload is the payload size in bytes above which a send on a
// bare TCP connection scatter/gathers header and payload with writev
// instead of coalescing them into scratch. Below it, one copy plus one
// Write is cheaper than the iovec bookkeeping — this is the path that
// coalesces small control messages (barriers, tags, beats) into a single
// wire write.
const writevMinPayload = 4 << 10

// writeFrame writes one frame to c. Large payloads on a bare TCP
// connection (little-endian host) go out as a writev group — header and
// CRC trailer from pooled scratch, payload viewed in place, zero copies:
// the checksum is computed over the scratch header and the in-place
// payload view before the writev, so integrity never costs a payload copy.
// Everything else — small or control frames, wrapped connections,
// big-endian hosts — is coalesced into fb and written in one call,
// preserving the one-Write-per-frame contract that fault injectors count
// frames by (wrapped connections are never *net.TCPConn, so they can never
// take the scatter/gather path).
func writeFrame(c net.Conn, fb *frameBuf, comm, tag uint32, data []float64) (int64, error) {
	if tc, ok := c.(*net.TCPConn); ok && hostLittleEndian && 8*len(data) >= writevMinPayload {
		fb.b = appendHeader(fb.b[:0], comm, tag, len(data))
		view := float64LEBytes(data)
		sum := crc32.Update(crc32.Update(0, castagnoli, fb.b), castagnoli, view)
		fb.b = binary.LittleEndian.AppendUint32(fb.b, sum)
		// The iovec lives in the pooled scratch: WriteTo takes the slice's
		// address, so a local one would be heap-allocated per frame.
		fb.vec = [3][]byte{fb.b[:headerBytes], view, fb.b[headerBytes:]}
		fb.bufs = fb.vec[:]
		n, err := fb.bufs.WriteTo(tc)
		fb.vec = [3][]byte{} // do not pin the caller's payload in the pool
		return n, err
	}
	fb.b = appendFrame(fb.b[:0], comm, tag, data)
	n, err := c.Write(fb.b)
	return int64(n), err
}

// send writes one frame to a peer, retrying transient errors through the
// reconnect machinery up to Config.MaxRetries. op tags any resulting
// PeerFailedError with the operation that detected the failure.
func (e *Endpoint) send(peer int, comm, tag uint32, data []float64, op string) error {
	rc := e.conns[peer]
	if rc == nil {
		return fmt.Errorf("netmpi: rank %d has no connection to rank %d", e.rank, peer)
	}
	if len(data) > maxFrameElems {
		return fmt.Errorf("netmpi: rank %d: a %d-element frame exceeds the %d-element cap", e.rank, len(data), maxFrameElems)
	}
	fb := getFrameBuf()
	defer putFrameBuf(fb) // every exit — failure, timeout, reconnect error — returns the scratch
	start := time.Now()
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	defer func() { rc.stats.sendNanos.Add(time.Since(start).Nanoseconds()) }()
	for attempt := 0; ; attempt++ {
		c, gen, failure := rc.snapshot()
		if failure != nil {
			return failure
		}
		if d := e.cfg.OpTimeout; d > 0 {
			c.SetWriteDeadline(time.Now().Add(d))
		} else {
			c.SetWriteDeadline(time.Time{})
		}
		n, err := writeFrame(c, fb, comm, tag, data)
		if err == nil {
			if comm == spanCommID {
				// Control traffic: kept out of the data counters so the
				// comm-volume audit sees algorithm payload only.
				rc.stats.spanBytesSent.Add(int64(8 * len(data)))
			} else {
				rc.stats.framesSent.Add(1)
				rc.stats.bytesSent.Add(int64(8 * len(data)))
			}
			rc.recordReplay(comm, tag, data)
			return nil
		}
		// A partial write loses the frame boundary; a deadline expiry is
		// the failure detector firing. Both are permanent.
		if n != 0 || attempt >= e.cfg.MaxRetries || !transientNetErr(err) {
			return rc.fail(op, err)
		}
		rc.stats.retries.Add(1)
		if rerr := e.reconnect(rc, gen, attempt); rerr != nil {
			return rc.fail(op, fmt.Errorf("reconnect after %v: %w", err, rerr))
		}
	}
}

// recv blocks until a frame with the given communicator and tag arrives
// from the peer, queueing frames for other (comm, tag) pairs and
// discarding heartbeat frames (which only serve to reset the deadline).
// A read deadline expiry — no frame, not even a beat, within OpTimeout —
// declares the peer failed.
//
// into, when non-nil, is where the caller wants the payload: if the frame
// carries exactly len(into) elements the returned slice IS into — read off
// the socket in place when the frame arrives while it is awaited, copied
// from the parked frame when it arrived earlier — and recv allocates
// nothing. A frame of any other length comes back as a slice the caller
// owns; telling the two apart (and deciding whether a length mismatch is an
// error) is the caller's job.
func (e *Endpoint) recv(peer int, comm, tag uint32, into []float64, op string) ([]float64, error) {
	rc := e.conns[peer]
	if rc == nil {
		return nil, fmt.Errorf("netmpi: rank %d has no connection to rank %d", e.rank, peer)
	}
	want := frameKey{comm, tag}
	rc.rmu.Lock()
	defer rc.rmu.Unlock()
	if q := rc.pending[want]; len(q) > 0 {
		data := q[0]
		// Tags are per-collective sequence numbers, so a key is never
		// awaited twice: drop the slot and the emptied key, or a long-lived
		// mesh retains every frame that ever arrived early.
		q[0] = nil
		if len(q) == 1 {
			delete(rc.pending, want)
		} else {
			rc.pending[want] = q[1:]
		}
		if into != nil && len(data) == len(into) {
			copy(into, data)
			return into, nil
		}
		return data, nil
	}
	attempt := 0
	for {
		c, gen, failure := rc.snapshot()
		if failure != nil {
			return nil, failure
		}
		if d := e.cfg.OpTimeout; d > 0 {
			c.SetReadDeadline(time.Now().Add(d))
		} else {
			c.SetReadDeadline(time.Time{})
		}
		readStart := time.Now()
		got, data, err := readFrame(c, &rc.rscr, want, into)
		rc.stats.recvNanos.Add(time.Since(readStart).Nanoseconds())
		if err != nil {
			var cfe *CorruptFrameError
			if errors.As(err, &cfe) {
				// A failed checksum poisons the whole stream, not just the
				// frame: the corruption may sit in the count field, so the
				// only safe resync point is a fresh connection. Stage a
				// re-request for the frame (by its untrusted key — a
				// payload flip leaves the key intact, the common case for
				// bulk frames) and run the ordinary reconnect; the
				// handshake carries the request and the peer's replay
				// buffer retransmits ahead of new traffic. Corrupt frames
				// are never counted as received payload, so the
				// comm-volume audit stays exact.
				cfe.Peer = peer
				rc.stats.corruptFrames.Add(1)
				key := frameKey{cfe.Comm, cfe.Tag}
				if rc.noteCorrupt(key) > maxRerequests {
					return nil, rc.fail(op, cfe)
				}
				if key.comm != heartbeatCommID {
					rc.setRerequest(key)
					rc.stats.rerequests.Add(1)
				}
				c.Close()
				if attempt < e.cfg.MaxRetries {
					attempt++
					rc.stats.retries.Add(1)
					if rerr := e.reconnect(rc, gen, attempt-1); rerr == nil {
						continue
					}
				}
				return nil, rc.fail(op, cfe)
			}
			if isTimeoutErr(err) {
				return nil, rc.fail(op, fmt.Errorf("rank %d heard nothing from rank %d for %v: %w",
					e.rank, peer, e.cfg.OpTimeout, err))
			}
			if attempt < e.cfg.MaxRetries && transientNetErr(err) {
				attempt++
				rc.stats.retries.Add(1)
				if rerr := e.reconnect(rc, gen, attempt-1); rerr == nil {
					continue
				}
			}
			return nil, rc.fail(op, fmt.Errorf("rank %d read from %d: %w", e.rank, peer, err))
		}
		attempt = 0
		if got.comm == heartbeatCommID {
			// Never delivered. A beat is [sendTs, echoTs, echoHold]: the
			// sender's clock gives a one-way delay sample, the echo pair
			// completes an NTP-style offset measurement (clocksync.go). A
			// beat of any other length is outside input that passed its
			// CRC; it counts as liveness only.
			rc.stats.heartbeats.Add(1)
			if len(data) == 3 {
				now := nowUnixSeconds()
				// Clamp at zero: with unsynchronized clocks the sample is
				// meaningless, and negative delays would corrupt the sum.
				if delay := now - data[0]; delay > 0 {
					rc.stats.hbDelay.Add(int64(delay * 1e9))
				}
				rc.clk.noteBeat(data[0], data[1], data[2], now)
			}
			continue
		}
		if got.comm == spanCommID {
			// Span-shipping control frames are delivered but accounted
			// separately: the comm-volume audit compares the partition
			// model's prediction against algorithm traffic, which a
			// trace blob is not.
			rc.stats.spanBytesRecv.Add(int64(8 * len(data)))
		} else {
			rc.stats.framesRecv.Add(1)
			rc.stats.bytesRecv.Add(int64(8 * len(data)))
		}
		if got == want {
			return data, nil
		}
		rc.pending[got] = append(rc.pending[got], data)
	}
}

// Comm is a communicator over a subset of world ranks.
type Comm struct {
	ep    *Endpoint
	ranks []int // ascending world ranks
	id    uint32
	seq   uint32 // collectives issued so far; guarded by ep.mu
}

// Split returns the communicator over the given world ranks. Creation is
// deterministic (no wire traffic): the communicator id is the FNV-1a hash of
// the sorted rank list, identical on every member. The endpoint keeps one
// Comm per rank set; a second rank set whose id collides with a kept one's
// would share its tags and frame keys, so it panics instead.
func (e *Endpoint) Split(ranks []int) *Comm {
	rs := ranks
	if !slices.IsSorted(rs) {
		rs = slices.Clone(ranks)
		slices.Sort(rs)
	}
	id := uint32(2166136261)
	for _, r := range rs {
		if r < 0 || r >= e.size {
			panic(fmt.Sprintf("netmpi: Split with invalid rank %d", r))
		}
		for k := 0; k < 4; k++ { // the rank's four little-endian bytes
			id = (id ^ uint32(byte(r>>(8*k)))) * 16777619
		}
	}
	if !slices.Contains(rs, e.rank) {
		panic(fmt.Sprintf("netmpi: rank %d not in group %v", e.rank, rs))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c := e.comms[id]; c != nil {
		if !slices.Equal(c.ranks, rs) {
			panic(fmt.Sprintf("netmpi: rank sets %v and %v hash to the same communicator id %#x", c.ranks, rs, id))
		}
		return c
	}
	c := &Comm{ep: e, ranks: slices.Clone(rs), id: id}
	e.comms[id] = c
	return c
}

// Size returns the communicator size; RankOf maps world→comm rank.
func (c *Comm) Size() int { return len(c.ranks) }

// RankOf returns the communicator rank of a world rank, or -1.
func (c *Comm) RankOf(worldRank int) int {
	for i, r := range c.ranks {
		if r == worldRank {
			return i
		}
	}
	return -1
}

// nextTag returns the next collective sequence number for this
// communicator. MPI ordering rules (all members issue collectives in the
// same order) keep the counters in lockstep across members.
func (c *Comm) nextTag() uint32 {
	c.ep.mu.Lock()
	defer c.ep.mu.Unlock()
	c.seq++
	return c.seq
}

// addCommSecs charges the wall time since start to the communication
// account; collectives defer it.
func (e *Endpoint) addCommSecs(start time.Time) {
	e.mu.Lock()
	e.commSecs += time.Since(start).Seconds()
	e.mu.Unlock()
}

// bcastTree moves one contiguous payload down the MPICH binomial tree
// rooted at comm rank root. The root passes the payload as data; every
// other member receives its parent's frame — into into when that is non-nil
// and the frame carries exactly len(into) elements (see recv) — and forwards
// what it received to its children. It returns the payload. A frame that
// does not fit a non-nil into is still forwarded, so that every member
// sees the mismatch, and then reported as a *LengthMismatchError.
func (c *Comm) bcastTree(tag uint32, root int, data, into []float64) ([]float64, error) {
	k := len(c.ranks)
	rel := (c.RankOf(c.ep.rank) - root + k) % k
	// Receive phase.
	mask := 1
	for mask < k {
		if rel&mask != 0 {
			src := c.ranks[(rel-mask+root)%k]
			got, err := c.ep.recv(src, c.id, tag, into, "bcast")
			if err != nil {
				return nil, err
			}
			data = got
			break
		}
		mask <<= 1
	}
	// Send phase.
	mask >>= 1
	for mask > 0 {
		if rel+mask < k {
			dst := c.ranks[(rel+mask+root)%k]
			if err := c.ep.send(dst, c.id, tag, data, "bcast"); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	if rel != 0 && into != nil && len(data) != len(into) {
		return nil, &LengthMismatchError{Rank: c.ep.rank, Want: len(into), Got: len(data)}
	}
	return data, nil
}

// Bcast broadcasts the root's buffer over the communicator with a binomial
// tree. On the root, buf is the source; on receivers the payload lands in
// buf when buf is non-nil — which must then be exactly as long as the
// root's buffer, or the call fails with a *LengthMismatchError instead of
// leaving a stale tail — and is returned either way (count is not used: the
// frame carries the length). A dead or silent peer turns the broadcast into
// a *PeerFailedError within Config.OpTimeout.
func (c *Comm) Bcast(buf []float64, count, root int) ([]float64, error) {
	if root < 0 || root >= len(c.ranks) {
		return nil, fmt.Errorf("netmpi: Bcast root %d out of range (size %d)", root, len(c.ranks))
	}
	tag := c.nextTag()
	defer c.ep.addCommSecs(time.Now())
	return c.bcastTree(tag, root, buf, buf)
}

// BcastPanel broadcasts the root's rows×cols panel src into every member's
// dst, the root's included; the dimensions are dst's and src is read on the
// root only. The root packs the panel once into recycled staging and sends
// that one frame down the tree — same frames and bytes on the wire as a
// Bcast of the packed panel — then Puts its own src into dst. A receiver
// reads the frame off the socket into recycled staging and Puts that into
// dst, whatever form dst has; in steady state nothing is allocated on either
// side. A member whose dimensions disagree with the root's fails with a
// *LengthMismatchError.
func (c *Comm) BcastPanel(src matrix.Dense, dst matrix.Dest, root int) error {
	if root < 0 || root >= len(c.ranks) {
		return fmt.Errorf("netmpi: BcastPanel root %d out of range (size %d)", root, len(c.ranks))
	}
	h, w := dst.Rows, dst.Cols
	isRoot := c.RankOf(c.ep.rank) == root
	if isRoot && (src.Rows != h || src.Cols != w) {
		return fmt.Errorf("netmpi: BcastPanel root source is %dx%d, destination %dx%d", src.Rows, src.Cols, h, w)
	}
	tag := c.nextTag()
	defer c.ep.addCommSecs(time.Now())
	buf := slab.Get(h * w)
	defer slab.Put(buf)
	var data []float64
	if isRoot {
		data = matrix.PackBlock(buf[:0], &src, h, w)
	}
	if _, err := c.bcastTree(tag, root, data, buf); err != nil {
		return err
	}
	if isRoot {
		return dst.Put(&src)
	}
	return dst.Put(&matrix.Dense{Rows: h, Cols: w, Stride: w, Data: buf})
}

// Send transmits data to world rank `to` under the given user tag. User
// tags live in a communicator id namespace of their own so they never
// collide with collective sequence numbers.
func (e *Endpoint) Send(to, tag int, data []float64) error {
	return e.send(to, userCommID, uint32(tag), data, "send")
}

// Recv blocks until a Send with the tag arrives from world rank `from`.
func (e *Endpoint) Recv(from, tag int) ([]float64, error) {
	defer e.addCommSecs(time.Now())
	return e.recv(from, userCommID, uint32(tag), nil, "recv")
}

// Allgather concatenates the members' buffers in communicator-rank order
// on every member (gather to comm rank 0, then broadcast).
func (c *Comm) Allgather(buf []float64) ([]float64, error) {
	k := len(c.ranks)
	me := c.RankOf(c.ep.rank)
	tag := c.nextTag()
	if me == 0 {
		parts := make([][]float64, k)
		parts[0] = append([]float64(nil), buf...)
		for i := 1; i < k; i++ {
			got, err := c.ep.recv(c.ranks[i], c.id, tag, nil, "allgather")
			if err != nil {
				return nil, err
			}
			parts[i] = got
		}
		var all []float64
		for _, p := range parts {
			all = append(all, p...)
		}
		res, err := c.Bcast(all, len(all), 0)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := c.ep.send(c.ranks[0], c.id, tag, buf, "allgather"); err != nil {
		return nil, err
	}
	// Receive the concatenation. Its length is unknown here; Bcast
	// carries it.
	return c.Bcast(nil, 0, 0)
}

// Barrier blocks until every member has arrived: a gather to comm rank 0
// followed by a broadcast. A member that never arrives (dead or silent
// past OpTimeout) turns the barrier into a *PeerFailedError.
func (c *Comm) Barrier() error {
	k := len(c.ranks)
	if k == 1 {
		return nil
	}
	tag := c.nextTag()
	me := c.RankOf(c.ep.rank)
	if me == 0 {
		for i := 1; i < k; i++ {
			if _, err := c.ep.recv(c.ranks[i], c.id, tag, nil, "barrier"); err != nil {
				return err
			}
		}
	} else if err := c.ep.send(c.ranks[0], c.id, tag, nil, "barrier"); err != nil {
		return err
	}
	_, err := c.Bcast(nil, 0, 0)
	return err
}
