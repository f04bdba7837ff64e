package netmpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
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
// State is shared across connections (reconnects get fresh wrappers but
// the same counters), so "corrupt the first data frame" means first ever,
// not first per conn — a retransmit on a fresh conn goes through clean.
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
	key, got, err := readFrame(bytes.NewReader(frame), new(frameScratch), frameKey{}, nil)
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
	if _, _, err := readFrame(bytes.NewReader(empty), new(frameScratch), frameKey{}, nil); err != nil {
		t.Fatalf("empty frame: %v", err)
	}

	// A flipped payload bit must surface as a typed CorruptFrameError.
	bad := append([]byte(nil), frame...)
	bad[headerBytes+3] ^= 0x01
	_, _, err = readFrame(bytes.NewReader(bad), new(frameScratch), frameKey{}, nil)
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
	if _, _, err := readFrame(bytes.NewReader(bad), new(frameScratch), frameKey{}, nil); !errors.As(err, &cfe) {
		t.Fatalf("trailer flip: got %v, want CorruptFrameError", err)
	}
}

// FuzzReadFrame drives the frame decoder with untrusted bytes. Three
// properties: arbitrary input never panics, never allocates past what its
// count (at most maxFrameElems) asks for, and re-encodes to itself when it
// decodes; a well-formed frame built from (comm, tag, payload) round-trips,
// into a fresh slice and in place into the caller's buffer; and one
// flipped bit anywhere in that frame is reported as a *CorruptFrameError.
func FuzzReadFrame(f *testing.F) {
	good := appendFrame(nil, 9, 3, []float64{1.5, -2, 3.25})
	countFlip := append([]byte(nil), good...)
	countFlip[15] ^= 0x80 // the count's top bit: a 2⁶³-element claim
	f.Add(countFlip, []byte("eight by"), uint32(9), uint32(3), uint(15*8+7))
	f.Add(good, []byte{}, uint32(heartbeatCommID), uint32(0), uint(0))
	f.Add(good[:20], []byte("sixteen bytes!!!"), uint32(probeCommID), uint32(1), uint(8*8+3))
	f.Fuzz(func(t *testing.T, raw, payload []byte, comm, tag uint32, bit uint) {
		checkArbitraryFrame(t, raw)

		data := make([]float64, len(payload)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		key := frameKey{comm, tag}
		frame := appendFrame(nil, comm, tag, data)
		into := make([]float64, len(data))
		for _, dst := range [][]float64{nil, into} {
			got, back, err := readFrame(bytes.NewReader(frame), new(frameScratch), key, dst)
			if err != nil || got != key || len(back) != len(data) {
				t.Fatalf("round trip (into %v): key %v, %d elements, err %v", dst != nil, got, len(back), err)
			}
			if dst != nil && len(dst) > 0 && &back[0] != &dst[0] {
				t.Fatal("the awaited frame was not read into the caller's buffer")
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
		if _, _, err := readFrame(bytes.NewReader(flipped), new(frameScratch), key, into); !errors.As(err, &cfe) {
			t.Fatalf("bit %d flipped: got %v, want a CorruptFrameError", pos, err)
		}
	})
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
	key, data, err := readFrame(rd, sc, frameKey{}, nil)
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

// TestCorruptFrameHealedByRerequest injects a single payload bit flip into
// a frame in flight and asserts the receiver gets the original bytes back
// through the re-request path — no failure surfaces to the caller, and the
// corrupt frame never pollutes the data counters.
func TestCorruptFrameHealedByRerequest(t *testing.T) {
	want := []float64{3.5, -1.25, 88, 0.0625}
	co := &corruptor{from: 1, count: 1}
	cfgs := []Config{
		{OpTimeout: 4 * time.Second, MaxRetries: 3, WrapConn: co.wrap},
		{OpTimeout: 4 * time.Second, MaxRetries: 3},
	}
	eps := worldWith(t, cfgs)

	var wg sync.WaitGroup
	var sendErr, recvErr error
	var got []float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		sendErr = eps[0].Send(1, 7, want)
	}()
	go func() {
		defer wg.Done()
		got, recvErr = eps[1].Recv(0, 7)
	}()
	wg.Wait()
	if sendErr != nil || recvErr != nil {
		t.Fatalf("send err %v, recv err %v", sendErr, recvErr)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d floats, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload[%d] = %v, want %v (retransmit served wrong bytes)", i, got[i], want[i])
		}
	}

	rs := eps[1].Stats().Peers[0]
	if rs.CorruptFrames != 1 || rs.Rerequests != 1 {
		t.Fatalf("receiver: corrupt=%d rerequests=%d, want 1/1", rs.CorruptFrames, rs.Rerequests)
	}
	if rs.FramesRecv != 1 || rs.BytesRecv != int64(8*len(want)) {
		t.Fatalf("receiver data counters polluted by corrupt frame: frames=%d bytes=%d",
			rs.FramesRecv, rs.BytesRecv)
	}
	ss := eps[0].Stats().Peers[len(eps[0].Stats().Peers)-1]
	if ss.RetransmitFrames != 1 || ss.RetransmitBytes != int64(8*len(want)) {
		t.Fatalf("sender: retransmits=%d bytes=%d, want 1/%d", ss.RetransmitFrames, ss.RetransmitBytes, 8*len(want))
	}
	if ss.FramesSent != 1 {
		t.Fatalf("sender counted the retransmit as a data frame: frames=%d", ss.FramesSent)
	}
}

// TestCorruptFrameRerequestsExhausted corrupts every copy of a frame —
// original and each retransmit — and asserts the bounded re-request
// protocol gives up with a PeerFailedError wrapping a CorruptFrameError
// instead of looping forever.
func TestCorruptFrameRerequestsExhausted(t *testing.T) {
	co := &corruptor{from: 1, count: 0} // corrupt everything, retransmits included
	cfgs := []Config{
		{OpTimeout: 4 * time.Second, MaxRetries: 10, WrapConn: co.wrap},
		{OpTimeout: 4 * time.Second, MaxRetries: 10},
	}
	eps := worldWith(t, cfgs)

	go func() { _ = eps[0].Send(1, 7, []float64{1, 2, 3}) }()
	_, err := eps[1].Recv(0, 7)
	var pf *PeerFailedError
	if !errors.As(err, &pf) {
		t.Fatalf("got %v, want PeerFailedError", err)
	}
	var cfe *CorruptFrameError
	if !errors.As(err, &cfe) {
		t.Fatalf("failure cause %v, want CorruptFrameError", err)
	}
	rs := eps[1].Stats().Peers[0]
	if rs.CorruptFrames != maxRerequests+1 {
		t.Fatalf("corrupt frames seen: %d, want %d (bounded re-requests)", rs.CorruptFrames, maxRerequests+1)
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
// DialTimeout whichever side it plays, and no connection to it is
// installed: mesh setup fails, and a live mesh keeps its connection.
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

	t.Run("v1-redialer-on-live-mesh", func(t *testing.T) {
		eps := worldWith(t, []Config{
			{OpTimeout: 4 * time.Second, DialTimeout: dialTimeout},
			{OpTimeout: 4 * time.Second, DialTimeout: dialTimeout},
		})
		_, genBefore, _ := eps[0].conns[1].snapshot()
		start := time.Now()
		if err := refused(helloOnly(t, eps[0].listener.Addr().String()), start); err != nil {
			t.Fatal(err)
		}
		if _, genAfter, _ := eps[0].conns[1].snapshot(); genAfter != genBefore {
			t.Fatalf("the legacy redial displaced the live conn: gen %d -> %d", genBefore, genAfter)
		}
		exchange(t, eps, 1)
	})
}

// TestStaleEpochRedialRejectedAfterPartition covers the fencing half of
// the asymmetric-partition story: a rank still living in a pre-recovery
// mesh generation redials a rebuilt mesh; the stale half-connection must
// be rejected at the hello — counted, closed, and invisible to the live
// conn — while traffic on the current epoch keeps flowing.
func TestStaleEpochRedialRejectedAfterPartition(t *testing.T) {
	cfgs := []Config{
		{OpTimeout: 4 * time.Second, Epoch: 7},
		{OpTimeout: 4 * time.Second, Epoch: 7},
	}
	eps := worldWith(t, cfgs)
	addr0 := eps[0].listener.Addr().String()

	// Live-epoch traffic before the stale knock.
	go func() { _ = eps[0].Send(1, 1, []float64{1}) }()
	if _, err := eps[1].Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	_, genBefore, _ := eps[0].conns[1].snapshot()

	// The stale half-connection: rank 1's previous incarnation redials
	// with the pre-recovery epoch.
	stale, err := net.Dial("tcp", addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	// A bare hello (no probe): the reject happens at the epoch check,
	// before the probe is read, and the close drains cleanly.
	if _, err := stale.Write(helloBytes(1, 6)); err != nil {
		t.Fatal(err)
	}
	stale.SetReadDeadline(time.Now().Add(4 * time.Second))
	if _, err := io.ReadAll(stale); err != nil {
		t.Fatalf("expected the stale conn closed cleanly, got read error %v", err)
	}

	if got := eps[0].Stats().EpochRejects; got != 1 {
		t.Fatalf("EpochRejects = %d, want 1", got)
	}
	if _, genAfter, _ := eps[0].conns[1].snapshot(); genAfter != genBefore {
		t.Fatalf("stale redial displaced the live conn: gen %d -> %d", genBefore, genAfter)
	}

	// The current epoch still speaks.
	go func() { _ = eps[0].Send(1, 2, []float64{2}) }()
	if _, err := eps[1].Recv(0, 2); err != nil {
		t.Fatalf("live epoch broken after stale reject: %v", err)
	}
}
