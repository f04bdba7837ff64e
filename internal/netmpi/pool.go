package netmpi

import (
	"net"
	"sync"
	"sync/atomic"
)

// Pooled scratch for building outgoing frames.
//
// Ownership rules (DESIGN.md §11):
//
//   - A buffer is checked out with getFrameBuf and MUST be returned with
//     putFrameBuf on every path out of the function that took it — the
//     send and heartbeat paths do this with a defer so that timeouts
//     and write failures return the buffer too.
//   - A pooled buffer never escapes the function that checked it out: it
//     is valid only until its put, so nothing downstream (pending queues,
//     stats, user code) may retain it.
//   - Buffers are returned regardless of how large they grew; the pool
//     recycles capacity across bursts and the GC trims it between them.
//
// Who owns a received payload: a frame that arrives while it is awaited,
// with the length the waiting caller sized its segments for, is read off
// the socket straight into those segments — the caller's own memory, before
// and after (Bcast's buf, or the strips of BcastPanel's destination).
// Only a frame nobody is waiting for yet — or of an unexpected length — is
// decoded into a fresh allocation: it is parked in rankConn.pending and
// handed over (copied into the segments, if the eventual caller brought
// them) when its key is awaited, at which point the queue slot and the
// emptied key are dropped. A CRC-corrupt frame leaves garbage in the
// caller's segments, but the call fails with the peer, so nothing reads it
// as data.
//
// No panel is staged: a root sends its destination's strips, and a receiver
// reads into its own. The one panel scratch is the endpoint's fringe
// buffer (Endpoint.fringe), which only the rank's own goroutine touches, and
// send returns only once the kernel has the bytes, so the next BcastPanel
// cannot overwrite a fringe still being written.
//
// The get/put counters exist so tests can assert the invariant: after a
// run quiesces, checkouts and returns must balance (see FramePoolStats).

// frameBuf is one pooled scratch buffer. The pointer wrapper keeps
// sync.Pool from allocating on every Put (interface boxing of a slice
// header would).
type frameBuf struct {
	b []byte
	// vec backs bufs, the writev group of a large frame (see writeFrame):
	// the header, the payload's runs and the trailer. arr backs vec, so
	// that a fresh buffer's first writev of a panel of up to 14 runs
	// allocates nothing for it.
	vec  [][]byte
	arr  [16][]byte
	bufs net.Buffers
}

var framePool = sync.Pool{New: func() any {
	framePoolNews.Add(1)
	fb := &frameBuf{}
	fb.vec = fb.arr[:0]
	return fb
}}

var (
	framePoolGets atomic.Int64
	framePoolPuts atomic.Int64
	framePoolNews atomic.Int64 // buffers minted because the pool was empty
)

// getFrameBuf checks a scratch buffer out of the pool, reset to length 0.
func getFrameBuf() *frameBuf {
	framePoolGets.Add(1)
	fb := framePool.Get().(*frameBuf)
	fb.b = fb.b[:0]
	return fb
}

// putFrameBuf returns a scratch buffer to the pool.
func putFrameBuf(fb *frameBuf) {
	framePoolPuts.Add(1)
	framePool.Put(fb)
}

// FramePoolStats reports the cumulative frame-pool checkouts, returns and
// fresh allocations across all endpoints in the process. When the
// transport is quiescent (no send or heartbeat in flight), gets == puts —
// the leak invariant the chaos tests assert: every error path must return
// its buffer. news counts Gets the pool could not serve from recycled
// buffers; a news rate tracking the gets rate means the pool is not
// actually recycling (the GC trimmed it, or checkouts overlap heavily).
func FramePoolStats() (gets, puts, news int64) {
	return framePoolGets.Load(), framePoolPuts.Load(), framePoolNews.Load()
}
