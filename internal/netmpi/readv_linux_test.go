package netmpi

import (
	"net"
	"slices"
	"testing"
	"time"
)

// readsVectored is whether a bare TCP connection reads frames vectored here.
const readsVectored = true

// TestReadvResumesMidSegment: a sender that dribbles one frame out a few
// bytes at a time makes each readv return short, mid-segment, and the
// reader must resume where the last one stopped: the payload lands whole and
// in order across segments of every size, zero-length ones included, and the
// CRC checks.
func TestReadvResumesMidSegment(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	out, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	in, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out.(*net.TCPConn).SetNoDelay(true)
	v, ok := newFrameReader(in).(*vecReader)
	if !ok {
		t.Fatal("a bare TCP connection got no vectored reader")
	}

	payload := make([]float64, 40)
	for i := range payload {
		payload[i] = float64(i) + 0.25
	}
	key := frameKey{comm: 5, tag: 8}
	wire := appendFrame(nil, key.comm, key.tag, payload)
	sent := make(chan error, 1)
	go func() {
		for off := 0; off < len(wire); off += 7 {
			if _, err := out.Write(wire[off:min(off+7, len(wire))]); err != nil {
				sent <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		sent <- nil
	}()

	into := [][]float64{make([]float64, 3), nil, make([]float64, 16), make([]float64, 1), make([]float64, 20)}
	in.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, data, _, err := readFrame(v, new(frameScratch), key, into)
	if err != nil || got != key || data != nil {
		t.Fatalf("key %v, payload returned apart %v, err %v", got, data != nil, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if back := slices.Concat(into...); !slices.Equal(back, payload) {
		t.Fatalf("segments hold %v, want %v", back, payload)
	}
	// 324 payload and trailer bytes in 7-byte writes a millisecond apart.
	if v.reads < 2 {
		t.Fatalf("%d readv calls returned data: the sender's chunks never made a read return short", v.reads)
	}
}
