package netmpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// worldWith dials a mesh where each rank gets its own Config (Rank, Addrs
// and Listener are filled in). Used by the wire-integrity tests, which
// need per-rank wrappers and epochs.
func worldWith(t *testing.T, cfgs []Config) []*Endpoint {
	t.Helper()
	p := len(cfgs)
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]*Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := cfgs[rank]
			cfg.Rank = rank
			cfg.Addrs = addrs
			cfg.Listener = listeners[rank]
			eps[rank], errs[rank] = Dial(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return eps
}

// corruptor flips one payload bit of selected data frames on the write
// side — the frame arrives with intact framing but a failing checksum.
// State is shared across an endpoint's connections, so "corrupt the first
// data frame" means the endpoint's first, not the first per conn.
type corruptor struct {
	mu    sync.Mutex
	from  int // corrupt data frames starting at this 1-based index…
	count int // …and this many of them (0 = all)
	seen  int
	fired int
}

func (co *corruptor) wrap(peer int, c net.Conn) net.Conn {
	return &corruptConn{Conn: c, co: co}
}

type corruptConn struct {
	net.Conn
	co *corruptor
}

func (cc *corruptConn) Write(b []byte) (int, error) {
	co := cc.co
	co.mu.Lock()
	corrupt := false
	if !IsHeartbeatFrame(b) && len(b) > headerBytes+crcTrailerBytes {
		co.seen++
		if co.seen >= co.from && (co.count == 0 || co.fired < co.count) {
			co.fired++
			corrupt = true
		}
	}
	co.mu.Unlock()
	if corrupt {
		nb := append([]byte(nil), b...)
		nb[headerBytes] ^= 0x40 // payload region: header and count stay valid
		return cc.Conn.Write(nb)
	}
	return cc.Conn.Write(b)
}

func TestFrameCRCRoundTrip(t *testing.T) {
	data := []float64{1.5, -2.25, 3.125, 0}
	frame := appendFrame(nil, 42, 7, data)
	key, got, _, err := readFrame(bytes.NewReader(frame), new(frameScratch), frameKey{}, nil)
	if err != nil {
		t.Fatalf("clean frame: %v", err)
	}
	if key != (frameKey{42, 7}) || len(got) != len(data) {
		t.Fatalf("key %v len %d", key, len(got))
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], data[i])
		}
	}

	// Empty payloads carry (and check) a trailer too.
	empty := appendFrame(nil, 1, 2, nil)
	if _, _, _, err := readFrame(bytes.NewReader(empty), new(frameScratch), frameKey{}, nil); err != nil {
		t.Fatalf("empty frame: %v", err)
	}

	// A flipped payload bit must surface as a typed CorruptFrameError.
	bad := append([]byte(nil), frame...)
	bad[headerBytes+3] ^= 0x01
	_, _, _, err = readFrame(bytes.NewReader(bad), new(frameScratch), frameKey{}, nil)
	var cfe *CorruptFrameError
	if !errors.As(err, &cfe) {
		t.Fatalf("payload flip: got %v, want CorruptFrameError", err)
	}
	if cfe.WantCRC == cfe.GotCRC {
		t.Fatal("corrupt frame reports matching CRCs")
	}

	// A flipped trailer bit too.
	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x80
	if _, _, _, err := readFrame(bytes.NewReader(bad), new(frameScratch), frameKey{}, nil); !errors.As(err, &cfe) {
		t.Fatalf("trailer flip: got %v, want CorruptFrameError", err)
	}
}

// FuzzReadFrame drives the frame decoder with untrusted bytes. Four
// properties: arbitrary input never panics, never allocates past what its
// count (at most maxFrameElems) asks for, and re-encodes to itself when it
// decodes; read into a split of segments as the awaited frame, it gives
// exactly the key, bytes and error of one contiguous read; a well-formed
// frame built from (comm, tag, payload) round-trips, into a fresh slice and
// in place into the caller's segments, however they split it; and one
// flipped bit anywhere in that frame is reported as a *CorruptFrameError.
func FuzzReadFrame(f *testing.F) {
	good := appendFrame(nil, 9, 3, []float64{1.5, -2, 3.25})
	countFlip := append([]byte(nil), good...)
	countFlip[15] ^= 0x80 // the count's top bit: a 2⁶³-element claim
	f.Add(countFlip, []byte("eight by"), uint32(9), uint32(3), uint(15*8+7), []byte{})
	f.Add(good, []byte{}, uint32(heartbeatCommID), uint32(0), uint(0), []byte{1, 0, 2})
	f.Add(good[:20], []byte("sixteen bytes!!!"), uint32(probeCommID), uint32(1), uint(8*8+3), []byte{0, 1})
	f.Add(good[:len(good)-1], []byte("twenty-four bytes, three"), uint32(1), uint32(2), uint(3), []byte{2, 0, 0, 1})
	f.Add(good[:headerBytes+8], []byte{}, uint32(0), uint32(0), uint(0), []byte{1}) // ends where a segment does
	f.Fuzz(func(t *testing.T, raw, payload []byte, comm, tag uint32, bit uint, cuts []byte) {
		checkArbitraryFrame(t, raw)
		checkSegmentedRead(t, raw, cuts)

		data := make([]float64, len(payload)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		key := frameKey{comm, tag}
		frame := appendFrame(nil, comm, tag, data)
		into := splitSegs(len(data), cuts)
		for _, dst := range [][][]float64{nil, into} {
			got, back, _, err := readFrame(bytes.NewReader(frame), new(frameScratch), key, dst)
			if err != nil || got != key || (dst == nil) != (back != nil) {
				t.Fatalf("round trip (into %v): key %v, payload returned %v, err %v", dst != nil, got, back != nil, err)
			}
			if dst != nil {
				back = slices.Concat(dst...)
			}
			if len(back) != len(data) {
				t.Fatalf("round trip (into %v): %d elements, want %d", dst != nil, len(back), len(data))
			}
			for i := range data {
				if math.Float64bits(back[i]) != math.Float64bits(data[i]) {
					t.Fatalf("element %d: %x, want %x", i, math.Float64bits(back[i]), math.Float64bits(data[i]))
				}
			}
		}

		// The stream continues past the frame, as a live connection's does:
		// a flip that raises the count reads on into the bytes that follow.
		pos := bit % uint(8*len(frame))
		flipped := append([]byte(nil), frame...)
		flipped[pos/8] ^= 1 << (pos % 8)
		grow := binary.LittleEndian.Uint64(flipped[8:]) - uint64(len(data))
		if grow > fuzzAllocElems && grow <= maxFrameElems {
			return // an honest but huge count: the reader would wait for gigabytes
		}
		if grow <= maxFrameElems {
			flipped = append(flipped, make([]byte, 8*grow)...)
		}
		var cfe *CorruptFrameError
		if _, _, _, err := readFrame(bytes.NewReader(flipped), new(frameScratch), key, into); !errors.As(err, &cfe) {
			t.Fatalf("bit %d flipped: got %v, want a CorruptFrameError", pos, err)
		}
	})
}

// splitSegs returns n elements' worth of segments, split where cuts say:
// each cut byte is the next segment's length modulo 5 (zero-length segments
// included), and the last segment takes what is left.
func splitSegs(n int, cuts []byte) [][]float64 {
	segs := [][]float64{}
	for _, c := range cuts {
		k := min(int(c%5), n)
		segs, n = append(segs, make([]float64, k)), n-k
	}
	return append(segs, make([]float64, n))
}

// checkSegmentedRead reads raw as the frame its header names, once into one
// contiguous buffer and once into segments split where cuts say, and checks
// the two reads agree: key, error, the bytes that land and how far into raw
// each read.
func checkSegmentedRead(t *testing.T, raw, cuts []byte) {
	t.Helper()
	if len(raw) < headerBytes {
		return
	}
	key := frameKey{binary.LittleEndian.Uint32(raw[0:]), binary.LittleEndian.Uint32(raw[4:])}
	count := binary.LittleEndian.Uint64(raw[8:])
	if count > fuzzAllocElems {
		return // see fuzzAllocElems
	}
	whole := [][]float64{make([]float64, count)}
	split := splitSegs(int(count), cuts)
	rdW, rdS := bytes.NewReader(raw), bytes.NewReader(raw)
	keyW, dataW, sumW, errW := readFrame(rdW, new(frameScratch), key, whole)
	keyS, dataS, sumS, errS := readFrame(rdS, new(frameScratch), key, split)
	if keyW != keyS || sumW != sumS || !reflect.DeepEqual(errW, errS) || (dataW == nil) != (dataS == nil) {
		t.Fatalf("split %v: key %v, sum %#x, err %v; contiguous: key %v, sum %#x, err %v",
			cuts, keyS, sumS, errS, keyW, sumW, errW)
	}
	if rdW.Len() != rdS.Len() {
		t.Fatalf("split %v read to offset %d, contiguous to %d", cuts, len(raw)-rdS.Len(), len(raw)-rdW.Len())
	}
	if errW == nil && !bytes.Equal(float64LEBytes(whole[0]), float64LEBytes(slices.Concat(split...))) {
		t.Fatalf("split %v landed other bytes than a contiguous read", cuts)
	}
}

// fuzzAllocElems bounds the counts FuzzReadFrame lets the decoder allocate
// for: a claim between it and maxFrameElems is legal, and reading it would
// cost the fuzzer up to 2 GiB per input.
const fuzzAllocElems = 1 << 16

// checkArbitraryFrame decodes raw and checks it neither panics nor
// allocates past its count's due, and that whatever decodes re-encodes to
// the bytes it came from.
func checkArbitraryFrame(t *testing.T, raw []byte) {
	t.Helper()
	var count uint64
	if len(raw) >= headerBytes {
		count = binary.LittleEndian.Uint64(raw[8:])
	}
	if count > fuzzAllocElems && count <= maxFrameElems {
		return // see fuzzAllocElems
	}
	due := uint64(1 << 20) // the error value, plus whatever other goroutines allocate meanwhile
	if count <= maxFrameElems {
		due += 8 * count
	}
	rd, sc := bytes.NewReader(raw), new(frameScratch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	key, data, _, err := readFrame(rd, sc, frameKey{}, nil)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > due {
		t.Fatalf("a %d-element claim allocated %d bytes, more than %d", count, grew, due)
	}
	if err != nil {
		return
	}
	if back := appendFrame(nil, key.comm, key.tag, data); !bytes.Equal(back, raw[:len(back)]) {
		t.Fatalf("decoded frame re-encodes to %x, input was %x", back, raw[:len(back)])
	}
}

// TestCorruptFrameWithoutRetriesFailsAtOnce: a CRC-caught frame fails its
// peer at once — nothing reconnects or re-requests it — whatever the frame's
// size, with heartbeats feeding the op deadline, and when the payload was
// being read into the caller's own buffer, which the caller does not get
// back as data.
func TestCorruptFrameWithoutRetriesFailsAtOnce(t *testing.T) {
	const opTimeout = 4 * time.Second
	world := []int{0, 1}
	for _, tc := range []struct {
		name      string
		elems     int
		heartbeat time.Duration
		bcast     bool // a Bcast into a caller buffer, else a Send/Recv
	}{
		{name: "small-send", elems: 3},
		{name: "over-64KiB-heartbeats-on", elems: 64<<10/8 + 1, heartbeat: 50 * time.Millisecond},
		{name: "bcast-into-caller-buffer", elems: 4, bcast: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co := &corruptor{from: 1, count: 1}
			eps := worldWith(t, []Config{
				{OpTimeout: opTimeout, HeartbeatInterval: tc.heartbeat, WrapConn: co.wrap},
				{OpTimeout: opTimeout, HeartbeatInterval: tc.heartbeat},
			})
			want := make([]float64, tc.elems)
			for i := range want {
				want[i] = float64(i) + 0.5
			}
			into := make([]float64, tc.elems)
			var got []float64
			var err error
			start := time.Now()
			if tc.bcast {
				go func() { _, _ = eps[0].Split(world).Bcast(want, len(want), 0) }()
				got, err = eps[1].Split(world).Bcast(into, len(into), 0)
			} else {
				go func() { _ = eps[0].Send(1, 7, want) }()
				got, err = eps[1].Recv(0, 7)
			}
			elapsed := time.Since(start)
			var pf *PeerFailedError
			if !errors.As(err, &pf) || pf.Rank != 0 {
				t.Fatalf("got %v, want a PeerFailedError naming rank 0", err)
			}
			var cfe *CorruptFrameError
			if !errors.As(err, &cfe) {
				t.Fatalf("failure cause %v, want CorruptFrameError", err)
			}
			if got != nil {
				t.Fatalf("the failed receive returned %d elements as data", len(got))
			}
			if elapsed > opTimeout/2 {
				t.Fatalf("the receiver took %v to fail, want well inside the %v op deadline", elapsed, opTimeout)
			}
			if rs := eps[1].Stats().Peers[0]; rs.CorruptFrames != 1 || rs.FramesRecv != 0 {
				t.Fatalf("receiver: corrupt=%d frames=%d, want 1/0", rs.CorruptFrames, rs.FramesRecv)
			}
		})
	}
}

// exchange sends a frame each way between eps[0] and eps[1] under tag and
// checks both arrive intact.
func exchange(t *testing.T, eps []*Endpoint, tag int) {
	t.Helper()
	want := []float64{4, 5, 6, float64(tag)}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	var got0, got1 []float64
	wg.Add(4)
	go func() { defer wg.Done(); errs[0] = eps[0].Send(1, tag, want) }()
	go func() { defer wg.Done(); got1, errs[1] = eps[1].Recv(0, tag) }()
	go func() { defer wg.Done(); errs[2] = eps[1].Send(0, tag, want) }()
	go func() { defer wg.Done(); got0, errs[3] = eps[0].Recv(1, tag) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tag %d op %d: %v", tag, i, err)
		}
	}
	for i := range want {
		if got0[i] != want[i] || got1[i] != want[i] {
			t.Fatalf("tag %d: got %v / %v, want %v", tag, got0, got1, want)
		}
	}
}

// TestHandshakeLateReply: the acceptor answers the dialer's probe more than
// a second late — its process starts accepting only after the dialer's
// connect completed on its listener — but inside DialTimeout. Both ends
// must agree on the framing: frames round-trip in both directions.
func TestHandshakeLateReply(t *testing.T) {
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]*Endpoint, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, delay := range []time.Duration{1500 * time.Millisecond, 0} {
		wg.Add(1)
		go func(rank int, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			eps[rank], errs[rank] = Dial(Config{
				Rank: rank, Addrs: addrs, Listener: listeners[rank],
				DialTimeout: 5 * time.Second, OpTimeout: 3 * time.Second,
			})
		}(r, delay)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	exchange(t, eps, 1)
	exchange(t, eps, 2)
}

// TestLegacyPeerInterop: a peer of an earlier build — one that sends a bare
// hello and never a probe, or never answers ours — is refused within
// DialTimeout whichever side it plays, and mesh setup fails.
func TestLegacyPeerInterop(t *testing.T) {
	const dialTimeout = time.Second
	const bound = 2 * dialTimeout // the deadline plus scheduling slack
	// refused reads c until the endpoint closes it.
	refused := func(c net.Conn, start time.Time) error {
		c.SetReadDeadline(start.Add(bound))
		if _, err := io.Copy(io.Discard, c); isTimeoutErr(err) {
			return fmt.Errorf("legacy peer still connected after %v", bound)
		}
		return nil
	}
	// dialFails runs Dial and checks it fails within bound of start.
	dialFails := func(cfg Config, start time.Time) error {
		cfg.DialTimeout = dialTimeout
		ep, err := Dial(cfg)
		if err == nil {
			ep.Close()
			return errors.New("mesh setup accepted a peer that never probed")
		}
		if took := time.Since(start); took > bound {
			return fmt.Errorf("refusal took %v, want within %v", took, bound)
		}
		return nil
	}
	listen := func(t *testing.T) net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	// helloOnly dials addr as rank 1 and sends a bare hello.
	helloOnly := func(t *testing.T, addr string) net.Conn {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Write(helloBytes(1, 0)); err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("v1-dialer-meets-v2-acceptor", func(t *testing.T) {
		ln := listen(t)
		start := time.Now()
		setup := make(chan error, 1)
		go func() {
			setup <- dialFails(Config{Rank: 0, Addrs: []string{ln.Addr().String(), "127.0.0.1:1"}, Listener: ln}, start)
		}()
		if err := refused(helloOnly(t, ln.Addr().String()), start); err != nil {
			t.Error(err)
		}
		if err := <-setup; err != nil {
			t.Error(err)
		}
	})

	t.Run("v2-dialer-meets-v1-acceptor", func(t *testing.T) {
		legacy := listen(t)
		peer := make(chan error, 1)
		go func() {
			c, err := legacy.Accept()
			if err != nil {
				peer <- err
				return
			}
			defer c.Close()
			peer <- refused(c, time.Now()) // reads the hello and the probe, answers nothing
		}()
		if err := dialFails(Config{Rank: 1, Addrs: []string{legacy.Addr().String(), "127.0.0.1:1"}, Listener: listen(t)}, time.Now()); err != nil {
			t.Error(err)
		}
		if err := <-peer; err != nil {
			t.Error(err)
		}
	})

	// A legacy rank that redials a live mesh — or a one-rank world, which
	// connects to nothing — finds no listener; the mesh keeps its conns.
	t.Run("v1-redialer-on-live-mesh", func(t *testing.T) {
		eps := worldWith(t, []Config{
			{OpTimeout: 4 * time.Second, DialTimeout: dialTimeout},
			{OpTimeout: 4 * time.Second, DialTimeout: dialTimeout},
		})
		refusesDial(t, eps[0].cfg.Addrs[0])
		solo := worldWith(t, []Config{{}})
		refusesDial(t, solo[0].cfg.Addrs[0])
		exchange(t, eps, 1)
	})
}

// TestWireFormatMismatchRefused: a peer whose handshake probe names an
// older wire format is refused at setup, within the dial bound, whichever
// side it plays, with a *WireFormatError that names both formats. Format 0
// sends a panel's rows where this build sends its strips, with the same
// lengths, so every CRC would pass; format 1 keys collectives by a hashed
// member set, so each side would wait out its op deadline on every frame.
func TestWireFormatMismatchRefused(t *testing.T) {
	const dialTimeout = time.Second
	const bound = 2 * dialTimeout
	listen := func(t *testing.T) net.Listener {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln
	}
	// refused checks that Dial failed within bound of start with the
	// mismatch against format old.
	refused := func(t *testing.T, cfg Config, start time.Time, old uint32) {
		cfg.DialTimeout = dialTimeout
		ep, err := Dial(cfg)
		if err == nil {
			ep.Close()
			t.Fatalf("mesh setup accepted a peer of wire format %d", old)
		}
		if took := time.Since(start); took > bound {
			t.Errorf("format %d: refusal took %v, want within %v", old, took, bound)
		}
		var wf *WireFormatError
		if !errors.As(err, &wf) || wf.Ours != wireFormat || wf.Theirs != old {
			t.Fatalf("got %v, want a WireFormatError{Ours: %d, Theirs: %d}", err, wireFormat, old)
		}
	}
	olds := []uint32{0, 1}

	t.Run("old-dialer", func(t *testing.T) {
		for _, old := range olds {
			ln := listen(t)
			start := time.Now()
			go func() {
				c, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					return
				}
				defer c.Close()
				c.Write(append(helloBytes(1, 0), appendFrame(nil, probeCommID, old, nil)...))
				io.Copy(io.Discard, c) // until the acceptor hangs up
			}()
			refused(t, Config{Rank: 0, Addrs: []string{ln.Addr().String(), "127.0.0.1:1"}, Listener: ln}, start, old)
		}
	})

	t.Run("old-acceptor", func(t *testing.T) {
		for _, old := range olds {
			ln := listen(t)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				var hello [8 + headerBytes + crcTrailerBytes]byte // the hello and the dialer's probe
				if _, err := io.ReadFull(c, hello[:]); err != nil {
					return
				}
				c.Write(appendFrame(nil, probeCommID, old, nil))
				io.Copy(io.Discard, c)
			}()
			refused(t, Config{Rank: 1, Addrs: []string{ln.Addr().String(), "127.0.0.1:1"}, Listener: listen(t)}, time.Now(), old)
		}
	})
}

// refusesDial checks that addr accepts no connection: the listener serves
// mesh setup only, so once the mesh is up a dial to a rank's address — a
// rank of a stale mesh generation, a peer of an earlier build — is refused
// before it can send a hello.
func refusesDial(t *testing.T, addr string) {
	t.Helper()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after mesh setup", addr)
	}
}

// TestStaleEpochRedialRejectedAfterPartition covers the fencing half of
// the asymmetric-partition story: a rank still living in a pre-recovery
// mesh generation redials a rebuilt mesh. Its dial is refused — no
// listener serves a live mesh — while traffic on the current epoch keeps
// flowing.
func TestStaleEpochRedialRejectedAfterPartition(t *testing.T) {
	eps := worldWith(t, []Config{
		{OpTimeout: 4 * time.Second, Epoch: 7},
		{OpTimeout: 4 * time.Second, Epoch: 7},
	})
	exchange(t, eps, 1)
	// Rank 1's previous incarnation knocks on every rank of the rebuilt mesh.
	for _, addr := range eps[0].cfg.Addrs {
		refusesDial(t, addr)
	}
	exchange(t, eps, 2)
}
