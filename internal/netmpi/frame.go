package netmpi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Frames are length-prefixed binary: a 16-byte header (communicator id,
// sequence/tag, payload count), count little-endian float64s, and a 4-byte
// CRC32C trailer over header+payload. Every frame carries the trailer —
// data, span, heartbeat and the handshake probe alike — so silent bit
// corruption surfaces as a typed *CorruptFrameError instead of a wrong
// answer.
//
// The hot path avoids per-element conversion: on little-endian hosts (the
// wire byte order) a []float64 payload and its wire image are the same
// bytes, so sends view the payload in place and receives decode straight
// into the result slice. Big-endian hosts fall back to element-wise
// conversion, keeping the wire format identical. The CRC is likewise
// computed over the pooled header scratch and the in-place payload view —
// integrity never adds a payload copy.

const (
	headerBytes     = 16
	crcTrailerBytes = 4
)

// maxFrameElems caps the payload count a frame header may claim. The count
// is read before the CRC can vouch for it, so a flipped high bit would
// otherwise ask for an impossible (panicking) or unbounded allocation; a
// claim above the cap is reported as a *CorruptFrameError instead. 2²⁸
// float64s (2 GiB) is the whole of a 16384² matrix — the largest panel a
// multiply broadcasts is one grid cell, at most N², and summagen-serve's
// -max-n defaults to 4096.
const maxFrameElems = 1 << 28

// Reserved communicator ids. Collective ids come from a 32-bit FNV hash of
// the rank list; the reserved values sit at the top of the id space.
const (
	// userCommID carries point-to-point Send/Recv traffic.
	userCommID = 0xFFFFFFFF
	// heartbeatCommID carries liveness beats. Beats are consumed and
	// discarded by the frame reader; their only effect is to keep the
	// read deadline of a blocked receiver moving (and, for extended
	// beats, to feed the clock-offset estimator — see clocksync.go).
	heartbeatCommID = 0xFFFFFFFE
	// spanCommID carries span-shipping control frames: serialized rank
	// span trees collected at rank 0 when a run ends (see span.go). Span
	// frames are delivered like data frames but accounted separately, so
	// the comm-volume audit keeps comparing the partition model against
	// algorithm traffic only.
	spanCommID = 0xFFFFFFFD
	// probeCommID carries the handshake probe each side sends right after
	// the hello is on the wire: it names the frame, if any, the speaker
	// wants retransmitted. See the handshake in netmpi.go.
	probeCommID = 0xFFFFFFFC
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64 via the crc32 package).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether this process's native byte order is the
// wire order. Evaluated once at start-up.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// float64LEBytes returns data's backing array viewed as raw bytes. The
// view aliases data — it is the frame's wire image only on little-endian
// hosts, and must not outlive the slice it aliases.
func float64LEBytes(data []float64) []byte {
	if len(data) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data))
}

// appendHeader appends the 16-byte frame header to dst.
func appendHeader(dst []byte, comm, tag uint32, count int) []byte {
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], comm)
	binary.LittleEndian.PutUint32(hdr[4:], tag)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(count))
	return append(dst, hdr[:]...)
}

// appendPayload appends data's wire image to dst.
func appendPayload(dst []byte, data []float64) []byte {
	if hostLittleEndian {
		return append(dst, float64LEBytes(data)...)
	}
	for _, v := range data {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// appendFrame appends one full coalesced frame (header + payload + CRC32C
// trailer) to dst.
func appendFrame(dst []byte, comm, tag uint32, data []float64) []byte {
	start := len(dst)
	dst = appendPayload(appendHeader(dst, comm, tag, len(data)), data)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// frameScratch is a reader's fixed-size header and trailer buffer. One lives
// on each rankConn (guarded by its read lock) so that reading a frame whose
// payload lands in the caller's buffer allocates nothing at all.
type frameScratch [headerBytes + crcTrailerBytes]byte

// readFrame blocks until one full frame arrives on r. When the frame is the
// one the caller is waiting for — its key equals want and it carries exactly
// len(into) elements, into non-nil — the payload is read off r straight
// into into and the returned slice is into itself; the CRC is checked in
// place, and since a corrupt frame's re-request reads into the same buffer,
// nothing the failed read left behind survives. Any other frame (another
// key, another length, or no into at all) is decoded into a freshly
// allocated []float64 the caller owns, because it will be parked or handed
// out as is (see pool.go for who owns what). A count above maxFrameElems or
// a CRC32C trailer that does not match returns a *CorruptFrameError that
// still carries the header fields as read (the re-request path needs the
// key; the caller must treat it as untrusted, since the corruption may sit
// in the header itself).
func readFrame(r io.Reader, sc *frameScratch, want frameKey, into []float64) (frameKey, []float64, error) {
	hdr := sc[:headerBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frameKey{}, nil, err
	}
	key := frameKey{binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:])}
	count := binary.LittleEndian.Uint64(hdr[8:])
	if count > maxFrameElems {
		return key, nil, &CorruptFrameError{Comm: key.comm, Tag: key.tag, Count: count}
	}
	var data []float64
	if into != nil && key == want && count == uint64(len(into)) {
		data = into
	} else if count > 0 {
		data = make([]float64, count)
	}
	view := float64LEBytes(data)
	if _, err := io.ReadFull(r, view); err != nil {
		return frameKey{}, nil, err
	}
	tr := sc[headerBytes:]
	if _, err := io.ReadFull(r, tr); err != nil {
		return frameKey{}, nil, err
	}
	claimed := binary.LittleEndian.Uint32(tr)
	if got := crc32.Update(crc32.Update(0, castagnoli, hdr), castagnoli, view); got != claimed {
		return key, nil, &CorruptFrameError{
			Comm: key.comm, Tag: key.tag, Count: count, WantCRC: claimed, GotCRC: got,
		}
	}
	if !hostLittleEndian {
		// In-place fix-up: each element's LE image is read before the
		// native value is stored over it. Done after the CRC check — the
		// checksum covers the wire image.
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(view[8*i:]))
		}
	}
	return key, data, nil
}

// IsHeartbeatFrame reports whether b begins with a heartbeat frame header.
// Fault injectors use it to keep frame counting deterministic (beats are
// timer-driven) while still subjecting beats to drop rules.
func IsHeartbeatFrame(b []byte) bool {
	return len(b) >= headerBytes && binary.LittleEndian.Uint32(b[0:]) == heartbeatCommID
}

// rerequest names one frame a receiver wants retransmitted after a CRC
// failure. It rides the handshake probe of the reconnect that follows the
// failure (see the handshake in netmpi.go).
type rerequest struct {
	key     frameKey
	present bool
}

// appendProbe appends the handshake probe frame: the reserved probe comm id
// and a 3-float payload encoding an optional re-request [present, comm, tag].
func appendProbe(dst []byte, rr rerequest) []byte {
	payload := [3]float64{0, float64(rr.key.comm), float64(rr.key.tag)}
	if rr.present {
		payload[0] = 1
	}
	return appendFrame(dst, probeCommID, 0, payload[:])
}

// readProbe reads the peer's handshake probe off r; anything but a valid
// probe is an error.
func readProbe(r io.Reader) (rerequest, error) {
	key, data, err := readFrame(r, new(frameScratch), frameKey{}, nil)
	if err != nil {
		return rerequest{}, err
	}
	if key.comm != probeCommID || len(data) != 3 {
		return rerequest{}, fmt.Errorf("expected a handshake probe, got a frame for comm %#x with %d elements", key.comm, len(data))
	}
	return rerequest{key: frameKey{comm: uint32(data[1]), tag: uint32(data[2])}, present: data[0] != 0}, nil
}
