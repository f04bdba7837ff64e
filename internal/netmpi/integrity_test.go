package netmpi

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// worldWith dials a mesh where each rank gets its own Config (Rank, Addrs
// and Listener are filled in). Used by the wire-integrity tests, which
// need per-rank wire versions, wrappers and epochs.
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
	frame := appendFrameCRC(nil, 42, 7, data)
	key, got, err := readFrame(bytes.NewReader(frame), new(frameScratch), true, frameKey{}, nil)
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
	empty := appendFrameCRC(nil, 1, 2, nil)
	if _, _, err := readFrame(bytes.NewReader(empty), new(frameScratch), true, frameKey{}, nil); err != nil {
		t.Fatalf("empty frame: %v", err)
	}

	// A flipped payload bit must surface as a typed CorruptFrameError.
	bad := append([]byte(nil), frame...)
	bad[headerBytes+3] ^= 0x01
	_, _, err = readFrame(bytes.NewReader(bad), new(frameScratch), true, frameKey{}, nil)
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
	if _, _, err := readFrame(bytes.NewReader(bad), new(frameScratch), true, frameKey{}, nil); !errors.As(err, &cfe) {
		t.Fatalf("trailer flip: got %v, want CorruptFrameError", err)
	}

	// The same bytes without a trailer parse as a v1 frame.
	v1 := appendFrame(nil, 42, 7, data)
	if _, _, err := readFrame(bytes.NewReader(v1), new(frameScratch), false, frameKey{}, nil); err != nil {
		t.Fatalf("v1 frame: %v", err)
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
	if !rs.CRC || !ss.CRC {
		t.Fatal("v2<->v2 pair did not negotiate CRC framing")
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

// TestLegacyPeerInterop pins version negotiation: a wire-v2 endpoint and a
// wire-v1 (legacy framing) endpoint still exchange data in both dial
// directions, falling back to CRC-less frames.
func TestLegacyPeerInterop(t *testing.T) {
	cases := []struct {
		name   string
		v0, v1 int
	}{
		{"v1-dialer-meets-v2-acceptor", 2, 1}, // rank 1 dials rank 0
		{"v2-dialer-meets-v1-acceptor", 1, 2},
		{"v1-both", 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := []Config{
				{OpTimeout: 4 * time.Second, WireVersion: tc.v0, DialTimeout: 5 * time.Second},
				{OpTimeout: 4 * time.Second, WireVersion: tc.v1, DialTimeout: 5 * time.Second},
			}
			eps := worldWith(t, cfgs)
			want := []float64{4, 5, 6, 7}
			var wg sync.WaitGroup
			errs := make([]error, 4)
			var got0, got1 []float64
			wg.Add(4)
			go func() { defer wg.Done(); errs[0] = eps[0].Send(1, 1, want) }()
			go func() { defer wg.Done(); got1, errs[1] = eps[1].Recv(0, 1) }()
			go func() { defer wg.Done(); errs[2] = eps[1].Send(0, 2, want) }()
			go func() { defer wg.Done(); got0, errs[3] = eps[0].Recv(1, 2) }()
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			for i := range want {
				if got0[i] != want[i] || got1[i] != want[i] {
					t.Fatalf("payload mismatch across versions: %v / %v, want %v", got0, got1, want)
				}
			}
			if crcOn := eps[0].Stats().Peers[0].CRC; crcOn {
				t.Fatal("mixed-version pair claims CRC framing")
			}
		})
	}
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
	_, genBefore, _, _ := eps[0].conns[1].snapshot()

	// The stale half-connection: rank 1's previous incarnation redials
	// with the pre-recovery epoch.
	stale, err := net.Dial("tcp", addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	// A bare hello (no probe): the reject happens at the epoch check,
	// before version negotiation, and the close drains cleanly.
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
	if _, genAfter, _, _ := eps[0].conns[1].snapshot(); genAfter != genBefore {
		t.Fatalf("stale redial displaced the live conn: gen %d -> %d", genBefore, genAfter)
	}

	// The current epoch still speaks.
	go func() { _ = eps[0].Send(1, 2, []float64{2}) }()
	if _, err := eps[1].Recv(0, 2); err != nil {
		t.Fatalf("live epoch broken after stale reject: %v", err)
	}
}
