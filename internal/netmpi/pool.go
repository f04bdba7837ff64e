package netmpi

import (
	"net"
	"sync"
	"sync/atomic"
)

// Pooled scratch for building outgoing frames, and recycled staging for
// strided panels.
//
// Ownership rules (DESIGN.md §11):
//
//   - A buffer is checked out with getFrameBuf and MUST be returned with
//     putFrameBuf on every path out of the function that took it — the
//     send and heartbeat paths do this with a defer so that timeouts,
//     reconnect failures and epoch rejections all return the buffer.
//   - A pooled buffer never escapes the function that checked it out: it
//     is valid only until its put, so nothing downstream (pending queues,
//     the replay FIFO, stats, user code) may retain it.
//   - Buffers are returned regardless of how large they grew; the pool
//     recycles capacity across bursts and the GC trims it between them.
//
// Who owns a received payload: a frame that arrives while it is awaited,
// with the length the waiting caller sized its buffer for, is read off the
// socket straight into that buffer — the caller's own memory, before and
// after (Comm.Bcast's buf, or BcastPanel's staging). Only
// a frame nobody is waiting for yet — or of an unexpected length — is
// decoded into a fresh allocation: it is parked in rankConn.pending and
// handed over (copied, if the eventual caller brought a buffer) when its key
// is awaited, at which point the queue slot and the emptied key are dropped.
// A CRC-corrupt frame leaves garbage in the caller's buffer only until the
// re-requested copy is read over it.
//
// Panel staging (slab.Get/slab.Put, the process's one recycled-buffer free
// list) holds one packed panel for the duration of one BcastPanel call on
// one rank: the root packs its strided source into it before the sends, a
// receiver reads the frame into it and Puts it into its destination. send
// returns only once the kernel has the bytes (and recordReplay has copied
// what it retains), so the deferred put cannot race a write.
//
// The get/put counters exist so tests can assert the invariant: after a
// run quiesces, checkouts and returns must balance (see FramePoolStats).

// frameBuf is one pooled scratch buffer. The pointer wrapper keeps
// sync.Pool from allocating on every Put (interface boxing of a slice
// header would).
type frameBuf struct {
	b []byte
	// vec backs bufs, the writev group of a large frame (see writeFrame).
	vec  [3][]byte
	bufs net.Buffers
}

var framePool = sync.Pool{New: func() any {
	framePoolNews.Add(1)
	return &frameBuf{}
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
