package netmpi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
)

// PeerFailedError reports that a peer rank has been declared failed. It is
// the runtime's single failure type: every way a peer can die — its
// connection resets, its socket goes silent past the operation deadline, a
// reconnect budget is exhausted, the initial dial never succeeds — converts
// a potential hang into this error, which propagates out of the collectives
// (Bcast, Allgather, Barrier), through the core.Proc adapter, and up to the
// caller of core.MultiplyOn.
type PeerFailedError struct {
	// Rank is the world rank of the peer declared failed.
	Rank int
	// Op names the operation during which the failure was detected
	// ("bcast", "barrier", "allgather", "send", "recv", "dial",
	// "heartbeat").
	Op string
	// Err is the underlying cause (an I/O error, a deadline expiry, or a
	// reconnect failure).
	Err error
}

func (e *PeerFailedError) Error() string {
	return fmt.Sprintf("netmpi: peer rank %d failed during %s: %v", e.Rank, e.Op, e.Err)
}

func (e *PeerFailedError) Unwrap() error { return e.Err }

// CorruptFrameError reports a frame whose CRC32C trailer did not match its
// contents, or whose header claimed more than maxFrameElems elements. Header
// fields are as read off the wire and therefore untrusted — the corruption
// may sit in the header itself.
// A bounded number of re-requests (maxRerequests) is attempted through the
// reconnect handshake; when they are exhausted, or the sender has no
// replay copy, the error becomes the cause of a *PeerFailedError and the
// job-level survivor-replan recovery takes over.
type CorruptFrameError struct {
	// Peer is the world rank the frame arrived from.
	Peer int
	// Comm, Tag and Count are the header fields as read (untrusted).
	Comm, Tag uint32
	Count     uint64
	// WantCRC is the trailer carried by the frame; GotCRC is the checksum
	// of the bytes that actually arrived. Both zero when the count was
	// rejected before the payload was read.
	WantCRC, GotCRC uint32
}

func (e *CorruptFrameError) Error() string {
	if e.Count > maxFrameElems {
		return fmt.Sprintf("netmpi: corrupt frame from rank %d (comm %#x tag %d): count %d exceeds the %d-element cap",
			e.Peer, e.Comm, e.Tag, e.Count, maxFrameElems)
	}
	return fmt.Sprintf("netmpi: corrupt frame from rank %d (comm %#x tag %d count %d): crc %#08x, frame claims %#08x",
		e.Peer, e.Comm, e.Tag, e.Count, e.GotCRC, e.WantCRC)
}

// LengthMismatchError reports a broadcast whose members disagree on the
// payload length: the frame that arrived does not have the number of
// elements this rank's buffer was sized for. It is a caller bug, never a
// transport fault, and is reported rather than papered over with a partial
// copy — the tail of a recycled buffer holds another multiply's data.
type LengthMismatchError struct {
	// Rank is the world rank that detected the mismatch.
	Rank int
	// Want is the element count this rank expected, Got the count the
	// frame carried.
	Want, Got int
}

func (e *LengthMismatchError) Error() string {
	return fmt.Sprintf("netmpi: bcast length mismatch on rank %d: buffer holds %d elements, frame carries %d",
		e.Rank, e.Want, e.Got)
}

// DegradedPeerError is the cause a gray-failure monitor injects when it
// proactively fails a slow-but-alive peer (see Endpoint.FailPeer and
// internal/grayfail). It ranks above every passively-detected cause in
// root-cause attribution: the monitor acted on direct cross-peer evidence,
// where a timeout on one link is circumstantial.
type DegradedPeerError struct {
	// Rank is the degraded peer.
	Rank int
	// Reason summarizes the evidence ("rtt ewma 80ms over 1ms baseline").
	Reason string
}

func (e *DegradedPeerError) Error() string {
	return fmt.Sprintf("netmpi: peer rank %d degraded (gray failure): %s", e.Rank, e.Reason)
}

// isTimeoutErr reports whether err is a network deadline expiry.
func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// transientNetErr reports whether err is a socket error that a reconnect
// could plausibly heal: a reset/closed connection or a clean EOF. Deadline
// expiries are never transient — they are the failure detector firing.
func transientNetErr(err error) bool {
	if err == nil || isTimeoutErr(err) {
		return false
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED)
}
