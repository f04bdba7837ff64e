// Package netmpi is a fault-tolerant TCP message-passing runtime for
// running SummaGen across OS processes or machines — the paper's stated
// future work ("we will study the efficiency of SummaGen for
// distributed-memory nodes and large clusters"). An Endpoint is a core.Proc,
// the runtime contract the in-process ranks implement too (see
// internal/core), so the unmodified engine runs over real sockets.
//
// Topology: a full mesh. Rank i listens on Addrs[i]; every pair of ranks
// holds one TCP connection (the higher rank dials the lower). Frames are
// length-prefixed binary (see frame.go). Collectives are built from
// point-to-point messages; broadcast uses the binomial tree of MPICH. There
// are no communicators: an engine broadcast names its members, the world
// collectives run over every rank, and each collective's frames carry the
// next key of one counter per endpoint, which every rank advances alike.
//
// Fault model: at the scales the roadmap targets, dead peers and
// stragglers are the norm, so every blocking operation is bounded.
// Config.OpTimeout puts a read/write deadline on each frame; the heartbeat
// loop (heartbeat.go) keeps live-but-slow peers from tripping it. Any
// detected failure — a reset, silence past the deadline, a frame that fails
// its CRC — permanently marks the peer connection failed and surfaces as a
// typed *PeerFailedError from the collectives instead of a hang. There is no
// in-connection recovery, as in MPI, where a failed rank aborts the job: the
// caller recovers, by replanning the job on the survivors (internal/sched)
// or by exiting. Config.WrapConn lets tests inject deterministic faults (see
// internal/faultinject).
package netmpi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
)

// Config describes one rank's view of the world.
type Config struct {
	// Rank of this endpoint.
	Rank int
	// Addrs holds one listen address per rank (host:port). This rank
	// listens on Addrs[Rank] unless Listener is supplied.
	Addrs []string
	// Listener optionally supplies a pre-bound listener for this rank
	// (used by tests with :0 addresses). It serves mesh setup only: Dial
	// closes it before returning.
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
	// WrapConn, when non-nil, wraps every established peer connection.
	// Test hook for deterministic fault injection; see internal/faultinject.
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
	// Ctx, when non-nil, aborts mesh setup (dials, their backoff, and
	// accepts) and stops the heartbeat loop once canceled — the drain path:
	// a shutting-down service must not leak goroutines parked in setup.
	// Canceling does not tear down an established mesh; use Close for that.
	Ctx context.Context
}

// withDefaults returns cfg with documented defaults applied.
func (cfg Config) withDefaults() Config {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	return cfg
}

// Endpoint is one rank of a connected world.
type Endpoint struct {
	cfg   Config
	rank  int
	size  int
	conns []*rankConn // indexed by peer rank; nil at self

	done     chan struct{}
	closing  sync.Once
	closeErr error

	// poisoned flips once any peer is declared failed. A poisoned
	// endpoint stops heartbeating: this rank can no longer complete the
	// collective algorithm, so its silence propagates the failure to the
	// rest of the mesh within one OpTimeout per hop instead of letting
	// live-but-stuck ranks keep each other's deadlines fed forever.
	poisoned atomic.Bool

	// keys is the last key taken. Every collective frame — an engine
	// broadcast (BeginStage) or a world collective (Bcast, Barrier and the
	// agree exchange) — carries meshCommID and a key from it. Every rank
	// runs every multiply and every world collective, in the same order, so
	// the counters stay in step on every rank and a key names one
	// collective on all of them. Keys only grow, so a frame of an earlier
	// stage or multiply can never match a later one.
	keys atomic.Uint32

	// world lists the world's ranks, the members of a world collective;
	// agreed is agree's buffer (epoch.go).
	world  []int
	agreed []float64

	// segs and fringe are BcastPanel's scratch: the list of a panel's runs,
	// and its fringe lanes (matrix.Dest.Runs). Only the rank's own
	// goroutine touches them.
	segs   [][]float64
	fringe []float64

	mu          sync.Mutex
	computeSecs float64
	commSecs    float64
}

// rankConn wraps one peer connection with framed, tag-matched I/O. The
// connection is fixed for the endpoint's life; a detected failure is
// permanent and poisons every subsequent operation on the peer.
type rankConn struct {
	ep   *Endpoint
	peer int
	c    net.Conn

	mu      sync.Mutex
	failure *PeerFailedError

	wmu sync.Mutex // serializes writers

	rmu     sync.Mutex // serializes the demand-driven reader
	rd      io.Reader  // what frames are read from: c, or its vectored reader (newFrameReader)
	pending map[frameKey][]parkedFrame
	rscr    frameScratch // header/trailer read buffer, guarded by rmu

	stats peerCounters
	clk   clockSync

	// budget is how many frame bytes a stage may post to the peer (see
	// PostPanel): half the connection's send buffer, which netmpi sets and
	// reads back itself (newRankConn), or 0 — nothing is posted — where it
	// cannot. posted is what the current stage has posted so far;
	// BeginStage restarts it. Only the rank's own goroutine touches either.
	budget, posted int
}

type frameKey struct {
	comm uint32
	tag  uint32
}

// parkedFrame is a frame that arrived before it was awaited: its payload and
// its verified CRC32C, which a member that forwards it sends on.
type parkedFrame struct {
	data []float64
	sum  uint32
}

// failed returns the peer's permanent failure, nil while it is healthy.
func (rc *rankConn) failed() *PeerFailedError {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.failure
}

// fail permanently marks the peer failed (first cause wins), closes the
// connection so any other blocked user wakes, and returns the error. The
// close runs outside mu: a wrapped connection's Close may block (a slow
// link delivers its queue first), and failed must not wait for it.
func (rc *rankConn) fail(op string, cause error) *PeerFailedError {
	rc.mu.Lock()
	first := rc.failure == nil
	if first {
		rc.failure = &PeerFailedError{Rank: rc.peer, Op: op, Err: cause}
	}
	failure := rc.failure
	rc.mu.Unlock()
	if first {
		rc.ep.poisoned.Store(true)
		rc.c.Close()
	}
	return failure
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
		cfg:    cfg,
		rank:   cfg.Rank,
		size:   size,
		conns:  make([]*rankConn, size),
		done:   make(chan struct{}),
		world:  make([]int, size),
		agreed: make([]float64, size),
	}
	for i := range ep.world {
		ep.world[i] = i
	}
	if size == 1 {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
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
	// Once every pair is connected nothing may join, so a dial that
	// arrives later is refused.
	defer ln.Close()

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
			if herr := acceptHandshake(c); herr != nil {
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
			c, err := dialRetry(cfg.Ctx, cfg.Addrs[peer], cfg.DialTimeout)
			if err != nil {
				errs[1] = &PeerFailedError{Rank: peer, Op: "dial",
					Err: fmt.Errorf("rank %d dialing %s: %w", cfg.Rank, cfg.Addrs[peer], err)}
				return
			}
			if herr := ep.dialHandshake(c); herr != nil {
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
	if cfg.HeartbeatInterval > 0 {
		go ep.heartbeatLoop()
	}
	return ep, nil
}

// sendBufferRequest is the send buffer netmpi asks for on every mesh
// connection; the kernel caps it at its own limit (Linux: net.core.wmem_max),
// and what it grants is read back. It is sized for posting (PostPanel): in
// one stage a root posts a peer at most its own cells of A or B, under
// 8·N² bytes, which is 512 KiB at N = 256, the largest order the benchmark
// workloads run over netmpi. The request is twice that, so that the frame
// headers fit and every root panel is posted up to N = 360. Setting the
// buffer turns off Linux's send-buffer autotuning for all the connection's
// traffic (DESIGN.md §11 has what that was measured to cost).
const sendBufferRequest = 1 << 20

// newRankConn applies socket options and the fault-injection hook to a
// handshaken peer connection and wraps it. Every TCP connection gets the
// send buffer above; a bare one gets its post budget: half the send buffer
// it reads back (Linux reports twice what it grants, the other half being
// its bookkeeping). A wrapped connection gets none: a wrapper may block a
// write that the buffer would take.
func (e *Endpoint) newRankConn(peer int, c net.Conn) *rankConn {
	budget := 0
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		if tc.SetWriteBuffer(sendBufferRequest) == nil {
			budget = sendBuffer(tc) / 2
		}
	}
	if e.cfg.WrapConn != nil {
		c, budget = e.cfg.WrapConn(peer, c), 0
	}
	return &rankConn{ep: e, peer: peer, c: c, rd: newFrameReader(c), pending: map[frameKey][]parkedFrame{}, budget: budget}
}

// The handshake: the dialer writes its hello and its probe in one Write;
// the acceptor reads both and answers with its own probe. A side that
// receives anything but a probe, or nothing before its deadline, refuses
// the connection — so a peer that never answers cannot join the mesh.

// dialHandshake writes the hello and the probe on a freshly dialed conn,
// then reads the acceptor's probe within DialTimeout.
func (e *Endpoint) dialHandshake(c net.Conn) error {
	if _, err := c.Write(append(helloBytes(e.rank, e.cfg.Epoch), probeFrame...)); err != nil {
		return err
	}
	_ = c.SetReadDeadline(time.Now().Add(e.cfg.DialTimeout))
	err := readProbe(c)
	_ = c.SetReadDeadline(time.Time{})
	return err
}

// acceptHandshake completes the acceptor's side after the hello has been
// read, under the read deadline the hello was read with: read the dialer's
// probe, clear the deadline, and answer with our own probe.
func acceptHandshake(c net.Conn) error {
	if err := readProbe(c); err != nil {
		return err
	}
	_ = c.SetReadDeadline(time.Time{})
	_, err := c.Write(probeFrame)
	return err
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

// Close tears down all connections. It is idempotent.
func (e *Endpoint) Close() error {
	e.closing.Do(func() {
		close(e.done)
		for _, rc := range e.conns {
			if rc == nil {
				continue
			}
			if err := rc.c.Close(); err != nil && e.closeErr == nil {
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
// another collective; one that is can, which is what lets an owner keep a
// mesh for its next run.
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

// writeFrame writes the frame f to c. A large payload on a bare TCP
// connection (little-endian host) goes out as one writev group — header and
// trailer from pooled scratch, every payload segment viewed in place, zero
// copies; the trailer is the checksum f was sealed with, so writing a frame
// to several peers checksums it once. Everything else — small or control
// frames, wrapped connections, big-endian hosts — is coalesced into fb and
// written in one call, preserving the one-Write-per-frame contract that
// fault injectors count frames by (wrapped connections are never
// *net.TCPConn, so they can never take the scatter/gather path).
func writeFrame(c net.Conn, fb *frameBuf, f *outFrame) error {
	fb.b = append(fb.b[:0], f.ends[:]...)
	if tc, ok := c.(*net.TCPConn); ok && hostLittleEndian && 8*f.n >= writevMinPayload {
		// The iovec lives in the pooled scratch: WriteTo takes the slice's
		// address, so a local one would be heap-allocated per frame.
		fb.vec = append(fb.vec[:0], fb.b[:headerBytes])
		for _, s := range f.segs {
			if len(s) > 0 {
				fb.vec = append(fb.vec, float64LEBytes(s))
			}
		}
		fb.vec = append(fb.vec, fb.b[headerBytes:])
		fb.bufs = fb.vec
		_, err := fb.bufs.WriteTo(tc)
		clear(fb.vec) // do not pin the caller's payload in the pool
		return err
	}
	fb.b = fb.b[:headerBytes]
	for _, s := range f.segs {
		fb.b = appendPayload(fb.b, s)
	}
	fb.b = append(fb.b, f.ends[headerBytes:]...)
	_, err := c.Write(fb.b)
	return err
}

// send writes one frame of data to a peer, checksummed here; sendFrame
// writes a frame already sealed.
func (e *Endpoint) send(peer int, comm, tag uint32, data []float64, op string) error {
	f := newOutFrame(comm, tag, [][]float64{data})
	f.seal(f.checksum())
	return e.sendFrame(peer, &f, op)
}

// sendFrame writes the frame f to a peer. Any write error — a partial write
// loses the frame boundary, a deadline expiry is the failure detector firing
// — fails the peer; op tags the resulting PeerFailedError with the operation
// that detected the failure.
func (e *Endpoint) sendFrame(peer int, f *outFrame, op string) error {
	rc := e.conns[peer]
	if rc == nil {
		return fmt.Errorf("netmpi: rank %d has no connection to rank %d", e.rank, peer)
	}
	if f.n > maxFrameElems {
		return fmt.Errorf("netmpi: rank %d: a %d-element frame exceeds the %d-element cap", e.rank, f.n, maxFrameElems)
	}
	fb := getFrameBuf()
	defer putFrameBuf(fb) // every exit — failure, timeout — returns the scratch
	start := time.Now()
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	defer func() { rc.stats.sendNanos.Add(time.Since(start).Nanoseconds()) }()
	if failure := rc.failed(); failure != nil {
		return failure
	}
	if d := e.cfg.OpTimeout; d > 0 {
		rc.c.SetWriteDeadline(time.Now().Add(d))
	} else {
		rc.c.SetWriteDeadline(time.Time{})
	}
	if err := writeFrame(rc.c, fb, f); err != nil {
		return rc.fail(op, err)
	}
	if f.comm == spanCommID {
		// Control traffic: kept out of the data counters so the
		// comm-volume audit sees algorithm payload only.
		rc.stats.spanBytesSent.Add(int64(8 * f.n))
	} else {
		rc.stats.framesSent.Add(1)
		rc.stats.bytesSent.Add(int64(8 * f.n))
	}
	return nil
}

// recv blocks until a frame with the given communicator id and tag arrives
// from the peer, queueing frames for other (comm, tag) pairs and
// discarding heartbeat frames (which only serve to reset the deadline).
// A read deadline expiry — no frame, not even a beat, within OpTimeout —
// a read error, or a frame that fails its CRC declares the peer failed.
//
// into, when non-nil, lists where the caller wants the payload, in order: if
// the frame carries exactly as many elements as into's segments hold, they
// land there — read off the socket in place when the frame arrives while it
// is awaited, copied from the parked frame when it arrived earlier — recv
// returns no payload, and it allocates nothing. A frame of any other length
// comes back as a non-nil slice the caller owns; telling the two apart (and
// deciding whether a length mismatch is an error) is the caller's job.
// Either way recv returns the frame's verified CRC32C.
func (e *Endpoint) recv(peer int, comm, tag uint32, into [][]float64, op string) ([]float64, uint32, error) {
	rc := e.conns[peer]
	if rc == nil {
		return nil, 0, fmt.Errorf("netmpi: rank %d has no connection to rank %d", e.rank, peer)
	}
	want := frameKey{comm, tag}
	rc.rmu.Lock()
	defer rc.rmu.Unlock()
	if q := rc.pending[want]; len(q) > 0 {
		p := q[0]
		// A collective's key is taken once, so it is never
		// awaited twice: drop the slot and the emptied key, or a long-lived
		// mesh retains every frame that ever arrived early.
		q[0] = parkedFrame{}
		if len(q) == 1 {
			delete(rc.pending, want)
		} else {
			rc.pending[want] = q[1:]
		}
		if into != nil && len(p.data) == segsLen(into) {
			rest := p.data
			for _, s := range into {
				rest = rest[copy(s, rest):]
			}
			return nil, p.sum, nil
		}
		return p.data, p.sum, nil
	}
	for {
		if failure := rc.failed(); failure != nil {
			return nil, 0, failure
		}
		if d := e.cfg.OpTimeout; d > 0 {
			rc.c.SetReadDeadline(time.Now().Add(d))
		} else {
			rc.c.SetReadDeadline(time.Time{})
		}
		readStart := time.Now()
		got, data, sum, err := readFrame(rc.rd, &rc.rscr, want, into)
		rc.stats.recvNanos.Add(time.Since(readStart).Nanoseconds())
		if err != nil {
			var cfe *CorruptFrameError
			if errors.As(err, &cfe) {
				// A failed checksum poisons the whole stream, not just the
				// frame: the corruption may sit in the count field, so no
				// later frame boundary can be trusted. Corrupt frames are
				// never counted as received payload, so the comm-volume
				// audit stays exact.
				cfe.Peer = peer
				rc.stats.corruptFrames.Add(1)
				return nil, 0, rc.fail(op, cfe)
			}
			if isTimeoutErr(err) {
				return nil, 0, rc.fail(op, fmt.Errorf("rank %d heard nothing from rank %d for %v: %w",
					e.rank, peer, e.cfg.OpTimeout, err))
			}
			return nil, 0, rc.fail(op, fmt.Errorf("rank %d read from %d: %w", e.rank, peer, err))
		}
		n := len(data)
		if data == nil {
			n = segsLen(into)
		}
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
			rc.stats.spanBytesRecv.Add(int64(8 * n))
		} else {
			rc.stats.framesRecv.Add(1)
			rc.stats.bytesRecv.Add(int64(8 * n))
		}
		if got == want {
			return data, sum, nil
		}
		rc.pending[got] = append(rc.pending[got], parkedFrame{data, sum})
	}
}

// Split returns the world communicator, which is the endpoint itself: its
// Bcast and Barrier run over every rank. ranks must list the whole world, in
// any order; a proper subset is refused with a panic. The engine needs no
// communicator (its broadcasts name their members, BcastPanel), so the world
// is the only one there is.
func (e *Endpoint) Split(ranks []int) *Endpoint {
	for r := range e.size {
		if len(ranks) != e.size || !slices.Contains(ranks, r) {
			panic(fmt.Sprintf("netmpi: rank %d: Split of %v, not the %d-rank world", e.rank, ranks, e.size))
		}
	}
	return e
}

// nextKeys takes the next n keys and returns the first.
func (e *Endpoint) nextKeys(n int) uint32 {
	return e.keys.Add(uint32(n)) - uint32(n) + 1
}

// BeginStage takes the next n keys as the stage's broadcast keys, returns the
// first, and restarts the stage's post budget on every connection. Every rank
// begins every stage with the stage's count over the whole schedule, so the
// counters stay in step and the stage's broadcast i carries key first+i,
// whenever it runs.
func (e *Endpoint) BeginStage(n int) int {
	for _, rc := range e.conns {
		if rc != nil {
			rc.posted = 0
		}
	}
	return int(e.nextKeys(n))
}

// addCommSecs charges the wall time since start to the communication
// account; collectives defer it.
func (e *Endpoint) addCommSecs(start time.Time) {
	e.mu.Lock()
	e.commSecs += time.Since(start).Seconds()
	e.mu.Unlock()
}

// bcastTree moves one payload down the MPICH binomial tree over members (a
// list of world ranks, this one among them) rooted at members[root], as one
// frame per edge keyed by key. The root passes its payload as segs, the runs
// of memory that hold it in order, and checksums it once for all its
// children. Every other member receives its parent's frame into segs — when
// segs is non-nil and the frame carries exactly as many elements as segs
// hold (see recv) — and forwards what it received, under the CRC32C it
// verified on the way in, to its children. It returns nil when the payload
// is in segs, and otherwise the received payload. A frame that does not fit
// a non-nil segs is still forwarded, so that every member sees the mismatch,
// and then reported as a *LengthMismatchError.
func (e *Endpoint) bcastTree(members []int, key uint32, root int, segs [][]float64) ([]float64, error) {
	k := len(members)
	rel := (slices.Index(members, e.rank) - root + k) % k
	var got []float64
	var sum uint32
	// Receive phase.
	mask := 1
	for mask < k {
		if rel&mask != 0 {
			src := members[(rel-mask+root)%k]
			var err error
			if got, sum, err = e.recv(src, meshCommID, key, segs, "bcast"); err != nil {
				return nil, err
			}
			break
		}
		mask <<= 1
	}
	// Send phase: the frame is built on the first send.
	payload := segs
	if got != nil {
		payload = [][]float64{got}
	}
	var f outFrame
	built := false
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask >= k {
			continue
		}
		if !built {
			f, built = newOutFrame(meshCommID, key, payload), true
			if rel == 0 {
				sum = f.checksum()
			}
			f.seal(sum)
		}
		if err := e.sendFrame(members[(rel+mask+root)%k], &f, "bcast"); err != nil {
			return nil, err
		}
	}
	if rel != 0 && segs != nil && got != nil {
		return nil, &LengthMismatchError{Rank: e.rank, Want: segsLen(segs), Got: len(got)}
	}
	return got, nil
}

// Bcast broadcasts the root's buffer over the world with a binomial tree. On
// the root, buf is the source; on receivers the payload lands in buf when
// buf is non-nil — which must then be exactly as long as the root's buffer,
// or the call fails with a *LengthMismatchError instead of leaving a stale
// tail — and is returned either way (count is not used: the frame carries
// the length). A dead or silent peer turns the broadcast into a
// *PeerFailedError within Config.OpTimeout.
func (e *Endpoint) Bcast(buf []float64, count, root int) ([]float64, error) {
	if root < 0 || root >= e.size {
		return nil, fmt.Errorf("netmpi: Bcast root %d out of range (size %d)", root, e.size)
	}
	key := e.nextKeys(1)
	defer e.addCommSecs(time.Now())
	var segs [][]float64
	if buf != nil {
		segs = [][]float64{buf}
	}
	got, err := e.bcastTree(e.world, key, root, segs)
	if got == nil && err == nil {
		return buf, nil
	}
	return got, err
}

// BcastPanel broadcasts the rows×cols panel src of members[root] into every
// member's dst, the root's included, under key (see BeginStage); members
// lists world ranks in ascending order, this one among them, the dimensions
// are dst's and src is read on the root only. The panel travels as dst's own
// storage: the root Puts src into its dst, then sends one frame whose
// payload is dst's runs and fringe (matrix.Dest.Runs) straight out of its
// strips, checksummed once for all its children. A receiver reads the frame
// off the socket straight into its dst's strips, its fringe lanes through a
// small scratch, and writes the fringe's padding zeros, as Put does. The
// frames and bytes on the wire are those of a Bcast of the packed panel, and
// in steady state nothing is allocated on either side. A member whose
// dimensions disagree with the root's fails with a *LengthMismatchError.
func (e *Endpoint) BcastPanel(src matrix.Dense, dst matrix.Dest, members []int, root, key int) error {
	if root < 0 || root >= len(members) {
		return fmt.Errorf("netmpi: BcastPanel root %d out of range (size %d)", root, len(members))
	}
	if !slices.Contains(members, e.rank) {
		return fmt.Errorf("netmpi: rank %d is not a member of %v", e.rank, members)
	}
	isRoot := members[root] == e.rank
	if isRoot && (src.Rows != dst.Rows || src.Cols != dst.Cols) {
		return fmt.Errorf("netmpi: BcastPanel root source is %dx%d, destination %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	defer e.addCommSecs(time.Now())
	if isRoot {
		if err := dst.Put(&src); err != nil {
			return err
		}
	}
	segs, fringe := dst.Runs(e.segs[:0])
	if fringe > 0 {
		e.fringe = slices.Grow(e.fringe[:0], fringe)[:fringe]
		if isRoot {
			dst.GatherFringe(e.fringe)
		}
		segs = append(segs, e.fringe)
	}
	e.segs = segs
	_, err := e.bcastTree(members, uint32(key), root, segs)
	clear(segs) // do not pin the strips
	if err == nil && !isRoot && fringe > 0 {
		dst.ScatterFringe(e.fringe)
	}
	return err
}

// PostPanel runs BcastPanel(src, dst, members, root, key) on the root now if
// its frames fit what is left of the stage's post budget on every member's
// connection, and reports whether it did. Within the budget a write cannot
// block (DESIGN.md §11), so the root sends its panel before it waits for any
// other; past it, the broadcast waits for its turn in schedule order. A
// member that is not the root runs nothing and reports true: with at most
// three members the binomial tree's root sends to every member itself, so a
// receiver sends nothing that a later post could overtake. Over more
// members, where the tree forwards, PostPanel reports false on every member.
func (e *Endpoint) PostPanel(src matrix.Dense, dst matrix.Dest, members []int, root, key int) (bool, error) {
	if len(members) > 3 {
		return false, nil
	}
	if members[root] != e.rank {
		return true, nil
	}
	frame := headerBytes + 8*dst.Rows*dst.Cols + crcTrailerBytes
	for _, r := range members {
		if rc := e.conns[r]; rc != nil && rc.posted+frame > rc.budget {
			return false, nil
		}
	}
	if err := e.BcastPanel(src, dst, members, root, key); err != nil {
		return true, err
	}
	for _, r := range members {
		if rc := e.conns[r]; rc != nil {
			rc.posted += frame
			rc.stats.framesPosted.Add(1)
		}
	}
	return true, nil
}

// Send transmits data to world rank `to` under the given user tag. User
// tags live in a communicator id namespace of their own so they never
// collide with collective keys.
func (e *Endpoint) Send(to, tag int, data []float64) error {
	return e.send(to, userCommID, uint32(tag), data, "send")
}

// Recv blocks until a Send with the tag arrives from world rank `from`.
func (e *Endpoint) Recv(from, tag int) ([]float64, error) {
	defer e.addCommSecs(time.Now())
	data, _, err := e.recv(from, userCommID, uint32(tag), nil, "recv")
	return data, err
}

// Barrier blocks until every rank has arrived: a gather to rank 0 followed
// by a broadcast. A rank that never arrives (dead or silent past OpTimeout)
// turns the barrier into a *PeerFailedError.
func (e *Endpoint) Barrier() error {
	if e.size == 1 {
		return nil
	}
	key := e.nextKeys(1)
	if e.rank == 0 {
		for r := 1; r < e.size; r++ {
			if _, _, err := e.recv(r, meshCommID, key, nil, "barrier"); err != nil {
				return err
			}
		}
	} else if err := e.send(0, meshCommID, key, nil, "barrier"); err != nil {
		return err
	}
	_, err := e.Bcast(nil, 0, 0)
	return err
}
