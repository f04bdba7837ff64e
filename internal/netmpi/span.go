package netmpi

import "fmt"

// Span shipping: at the end of a multi-process run (summagen -hosts) every
// rank serializes its span tree (see internal/obs) and ships the blob to
// rank 0 over the reserved spanCommID control frame, where the traces are
// merged into one clock-aligned export. The transport stays float64-framed
// — a blob is packed as [byte-length, raw bytes in the float64 backing
// array] — and span frames are accounted under PeerStats.SpanBytes*
// instead of the data counters, keeping the comm-volume audit blind to
// tracing.

// spanBlobTag is the tag span blobs travel under. A mesh serves one run at
// a time, each rank ships at most one blob per run and rank 0 receives every
// blob before the run ends, so a single tag suffices.
const spanBlobTag = 0

// SendSpanBlob ships an opaque blob (a serialized rank span tree) to
// world rank `to`. Best-effort semantics are the caller's choice: the
// error is the usual transport error surface.
func (e *Endpoint) SendSpanBlob(to int, blob []byte) error {
	return e.send(to, spanCommID, spanBlobTag, packBlob(blob), "span-ship")
}

// RecvSpanBlob blocks until a span blob arrives from world rank `from`.
func (e *Endpoint) RecvSpanBlob(from int) ([]byte, error) {
	data, err := e.recv(from, spanCommID, spanBlobTag, nil, "span-ship")
	if err != nil {
		return nil, err
	}
	return unpackBlob(from, data)
}

// packBlob encodes a byte blob into a float64 payload: element 0 is the
// byte length, the remaining elements carry the raw bytes in their
// backing array. Only bit patterns move — both pack and unpack view the
// float64 memory directly, and the wire layer round-trips element bit
// patterns exactly — so arbitrary bytes survive.
func packBlob(b []byte) []float64 {
	out := make([]float64, 1+(len(b)+7)/8)
	out[0] = float64(len(b))
	copy(float64LEBytes(out[1:]), b)
	return out
}

// unpackBlob reverses packBlob. from tags decode errors with the sender.
func unpackBlob(from int, data []float64) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("netmpi: empty span blob from rank %d", from)
	}
	n := int(data[0])
	if n < 0 || (n+7)/8 != len(data)-1 {
		return nil, fmt.Errorf("netmpi: span blob from rank %d declares %d bytes in %d elements", from, n, len(data)-1)
	}
	out := make([]byte, n)
	copy(out, float64LEBytes(data[1:]))
	return out, nil
}
