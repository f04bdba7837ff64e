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
// key or tag, payload count), count little-endian float64s, and a 4-byte
// CRC32C trailer over header+payload. Every frame carries the trailer —
// data, span, heartbeat and the handshake probe alike — so silent bit
// corruption surfaces as a typed *CorruptFrameError instead of a wrong
// answer.
//
// A payload may live in several runs of memory — a panel's strips in WA or
// WB (matrix.Dest.Runs) — and travels as their concatenation: sends gather
// the runs, receives scatter into them. The hot path avoids per-element
// conversion: on little-endian hosts (the wire byte order) a []float64 and
// its wire image are the same bytes, so sends view the runs in place and
// receives decode straight into the caller's. Big-endian hosts fall back to
// element-wise conversion, keeping the wire format identical. The CRC is
// likewise computed over the header and the in-place payload views —
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

// Communicator ids, at the top of the id space.
const (
	// meshCommID carries every collective: the engine's broadcasts and the
	// world collectives, each under its key (Endpoint.keys).
	meshCommID = 0xFFFFFFFB
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
	// the hello is on the wire. See the handshake in netmpi.go.
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

// updatePayload returns sum updated with the wire image of each of segs in
// turn. Little-endian hosts checksum the elements in place; others convert
// them eight bytes at a time, so the checksum is always the wire's.
func updatePayload(sum uint32, segs [][]float64) uint32 {
	for _, s := range segs {
		if hostLittleEndian {
			sum = crc32.Update(sum, castagnoli, float64LEBytes(s))
			continue
		}
		var b [8]byte
		for _, v := range s {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			sum = updateSmall(sum, b[:])
		}
	}
	return sum
}

// updateSmall is crc32.Update with the Castagnoli table for a few bytes, a
// header or one element. crc32.Update reaches its fast path through a
// function variable, so whatever it is passed escapes; updateSmall lets a
// frame's header stay on its sender's stack.
func updateSmall(crc uint32, p []byte) uint32 {
	crc = ^crc
	for _, v := range p {
		crc = castagnoli[byte(crc)^v] ^ crc>>8
	}
	return ^crc
}

// segsLen returns how many elements segs hold.
func segsLen(segs [][]float64) int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	return n
}

// An outFrame is one frame ready for the wire: its payload as the runs of
// memory that hold it, in order, and its header and CRC32C trailer, built
// once. A broadcast sends the same outFrame to every child, so a panel is
// checksummed once however many peers it goes to.
type outFrame struct {
	comm uint32
	segs [][]float64
	n    int                                 // payload elements
	ends [headerBytes + crcTrailerBytes]byte // the header, then the trailer
}

// newOutFrame returns the frame of (comm, tag) carrying segs; seal sets its
// trailer.
func newOutFrame(comm, tag uint32, segs [][]float64) outFrame {
	f := outFrame{comm: comm, segs: segs, n: segsLen(segs)}
	appendHeader(f.ends[:0], comm, tag, f.n)
	return f
}

// checksum computes the frame's CRC32C over its header and payload.
func (f *outFrame) checksum() uint32 {
	return updatePayload(updateSmall(0, f.ends[:headerBytes]), f.segs)
}

// seal sets the frame's trailer to sum: its checksum, or, on a member that
// forwards what it received, the CRC32C it verified on the way in.
func (f *outFrame) seal(sum uint32) {
	binary.LittleEndian.PutUint32(f.ends[headerBytes:], sum)
}

// frameScratch is a reader's header and trailer buffer and the list of byte
// views one frame's payload and trailer are read into. One lives on each
// rankConn (guarded by its read lock), so that reading a frame whose payload
// lands in the caller's buffers allocates nothing at all.
type frameScratch struct {
	ends [headerBytes + crcTrailerBytes]byte
	vec  [][]byte
}

// A vectorReader fills several buffers in order with as few reads as the
// bytes' arrival allows: readv(2) on a bare TCP connection (readv_linux.go).
type vectorReader interface {
	readFullv(bufs [][]byte) error
}

// readFullv fills bufs in order from r, with r's vectored read where it has
// one and with one io.ReadFull per buffer elsewhere, and fails as one
// io.ReadFull of their concatenation would: io.EOF if no byte came,
// io.ErrUnexpectedEOF if some did. It may reslice the elements of bufs.
func readFullv(r io.Reader, bufs [][]byte) error {
	if vr, ok := r.(vectorReader); ok {
		return vr.readFullv(bufs)
	}
	some := false
	for _, b := range bufs {
		n, err := io.ReadFull(r, b)
		if err == io.EOF && some {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
		some = some || n > 0
	}
	return nil
}

// readFrame blocks until one full frame arrives on r. When the frame is the
// one the caller is waiting for — its key equals want and it carries exactly
// as many elements as into's segments hold, into non-nil — the payload is
// read off r straight into the segments, in order, and readFrame returns no
// payload; the CRC is checked in place, and a corrupt frame fails its peer,
// so nothing reads what the failed read left behind as data. Any other frame
// (another key, another length, or no into at all) is decoded into a freshly
// allocated, non-nil []float64 the caller owns, because it will be parked or
// handed out as is (see pool.go for who owns what). Either way the frame's
// key and its verified CRC32C come back. A count above maxFrameElems or a
// CRC32C trailer that does not match returns a *CorruptFrameError that still
// carries the header fields as read, for the diagnostic (untrusted, since the
// corruption may sit in the header itself).
func readFrame(r io.Reader, sc *frameScratch, want frameKey, into [][]float64) (frameKey, []float64, uint32, error) {
	hdr := sc.ends[:headerBytes]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frameKey{}, nil, 0, err
	}
	key := frameKey{binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:])}
	count := binary.LittleEndian.Uint64(hdr[8:])
	if count > maxFrameElems {
		return key, nil, 0, &CorruptFrameError{Comm: key.comm, Tag: key.tag, Count: count}
	}
	var data []float64
	segs := into
	if into == nil || key != want || count != uint64(segsLen(into)) {
		data = make([]float64, count)
		segs = [][]float64{data}
	}
	vec := sc.vec[:0]
	for _, s := range segs {
		if len(s) > 0 {
			vec = append(vec, float64LEBytes(s))
		}
	}
	tr := sc.ends[headerBytes:]
	sc.vec = append(vec, tr)
	err := readFullv(r, sc.vec)
	clear(sc.vec) // do not pin the caller's buffers
	if err != nil {
		return frameKey{}, nil, 0, err
	}
	claimed := binary.LittleEndian.Uint32(tr)
	got := crc32.Update(0, castagnoli, hdr)
	for _, s := range segs {
		got = crc32.Update(got, castagnoli, float64LEBytes(s)) // the wire image, whatever the host
	}
	if got != claimed {
		return key, nil, 0, &CorruptFrameError{
			Comm: key.comm, Tag: key.tag, Count: count, WantCRC: claimed, GotCRC: got,
		}
	}
	if !hostLittleEndian {
		// In-place fix-up: each element's LE image is read before the
		// native value is stored over it. Done after the CRC check — the
		// checksum covers the wire image.
		for _, s := range segs {
			view := float64LEBytes(s)
			for i := range s {
				s[i] = math.Float64frombits(binary.LittleEndian.Uint64(view[8*i:]))
			}
		}
	}
	return key, data, claimed, nil
}

// IsHeartbeatFrame reports whether b begins with a heartbeat frame header.
// Fault injectors use it to keep frame counting deterministic (beats are
// timer-driven) while still subjecting beats to drop rules.
func IsHeartbeatFrame(b []byte) bool {
	return len(b) >= headerBytes && binary.LittleEndian.Uint32(b[0:]) == heartbeatCommID
}

// wireFormat numbers the order in which a panel's elements travel. The
// handshake probe carries it as its tag, and a peer whose number differs is
// refused at setup with a *WireFormatError: the two orders have the same
// lengths, so every CRC would pass and a peer of the other order would put
// the panels in the wrong places. Format 0 sent a panel's rows; format 1
// sends its destination's strips (DESIGN.md §11) and keyed collectives by a
// hash of their member set and a tag counter per set, which a peer of format
// 2 would never match, so it would wait out OpTimeout on every frame; format
// 2 keys every collective by the endpoint's one key counter (meshCommID).
const wireFormat = 2

// probeFrame is the handshake probe each side sends right after the hello:
// an empty frame on the reserved probe comm id, tagged with the wire format.
// A side that gets no probe back, or one of another format, refuses the
// connection.
var probeFrame = appendFrame(nil, probeCommID, wireFormat, nil)

// readProbe reads the peer's handshake probe off r; anything but a probe is
// an error, and a probe of another wire format a *WireFormatError.
func readProbe(r io.Reader) error {
	key, data, _, err := readFrame(r, new(frameScratch), frameKey{}, nil)
	if err != nil {
		return err
	}
	if key.comm != probeCommID || len(data) != 0 {
		return fmt.Errorf("expected a handshake probe, got a frame for comm %#x with %d elements", key.comm, len(data))
	}
	if key.tag != wireFormat {
		return &WireFormatError{Ours: wireFormat, Theirs: key.tag}
	}
	return nil
}
