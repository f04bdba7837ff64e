package netmpi

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestStatsCountsFramesAndBytes runs a known message pattern over a 2-rank
// mesh and checks the per-peer counters account for exactly that traffic.
func TestStatsCountsFramesAndBytes(t *testing.T) {
	eps := localWorld(t, 2)
	const count = 100 // payload floats per message
	const msgs = 3
	runAll(t, eps, func(ep *Endpoint) error {
		peer := 1 - ep.Rank()
		for i := 0; i < msgs; i++ {
			if ep.Rank() == 0 {
				if err := ep.Send(peer, i, make([]float64, count)); err != nil {
					return err
				}
			} else {
				if _, err := ep.Recv(peer, i); err != nil {
					return err
				}
			}
		}
		return nil
	})

	s0, s1 := eps[0].Stats(), eps[1].Stats()
	if s0.Rank != 0 || s1.Rank != 1 {
		t.Fatalf("ranks = %d, %d", s0.Rank, s1.Rank)
	}
	if len(s0.Peers) != 1 || s0.Peers[0].Peer != 1 {
		t.Fatalf("rank 0 peers = %+v, want exactly peer 1", s0.Peers)
	}
	ps0, ps1 := s0.Peers[0], s1.Peers[0]
	if ps0.FramesSent != msgs || ps0.BytesSent != msgs*count*8 {
		t.Errorf("sender counters = %d frames / %d bytes, want %d / %d",
			ps0.FramesSent, ps0.BytesSent, msgs, msgs*count*8)
	}
	if ps1.FramesRecv != msgs || ps1.BytesRecv != msgs*count*8 {
		t.Errorf("receiver counters = %d frames / %d bytes, want %d / %d",
			ps1.FramesRecv, ps1.BytesRecv, msgs, msgs*count*8)
	}
	if ps1.RecvSeconds <= 0 {
		t.Errorf("receiver recv seconds = %v, want > 0", ps1.RecvSeconds)
	}
	if s0.TotalRecvBytes() != 0 || s1.TotalRecvBytes() != msgs*count*8 {
		t.Errorf("TotalRecvBytes = %d / %d", s0.TotalRecvBytes(), s1.TotalRecvBytes())
	}
}

// TestStatsHeartbeats runs a beating mesh long enough for several beats and
// checks they are counted — and kept out of the data-frame counters.
func TestStatsHeartbeats(t *testing.T) {
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
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eps[rank], errs[rank] = Dial(Config{
				Rank: rank, Addrs: addrs, Listener: listeners[rank],
				HeartbeatInterval: 5 * time.Millisecond,
				OpTimeout:         2 * time.Second,
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	// A blocking Recv sits on the wire while the peer beats; delay the
	// send so several heartbeats land first.
	var sendWg sync.WaitGroup
	sendWg.Add(1)
	go func() {
		defer sendWg.Done()
		time.Sleep(60 * time.Millisecond)
		if err := eps[1].Send(0, 7, []float64{1}); err != nil {
			t.Error(err)
		}
	}()
	if _, err := eps[0].Recv(1, 7); err != nil {
		t.Fatal(err)
	}
	sendWg.Wait()

	ps := eps[0].Stats().Peers[0]
	if ps.Heartbeats < 3 {
		t.Errorf("heartbeats received = %d, want >= 3 after 60ms at 5ms interval", ps.Heartbeats)
	}
	if ps.FramesRecv != 1 {
		t.Errorf("data frames recv = %d, want 1 (heartbeats must not count)", ps.FramesRecv)
	}
	if ps.BytesRecv != 8 {
		t.Errorf("bytes recv = %d, want 8 (heartbeat payloads must not count)", ps.BytesRecv)
	}
	// One-way delay sums only positive samples; with a shared local clock
	// it must at least not be negative.
	if ps.HeartbeatDelaySeconds < 0 {
		t.Errorf("heartbeat delay = %v, want >= 0", ps.HeartbeatDelaySeconds)
	}
}

// TestStatsEpochReject: a rank at a stale epoch that knocks on a rebuilt
// mesh (epoch 1) is refused before it can send a hello, so it reaches no
// peer connection and moves no counter; the live mesh's counters go on
// counting exactly its own traffic.
func TestStatsEpochReject(t *testing.T) {
	eps := worldWith(t, []Config{{Epoch: 1}, {Epoch: 1}})
	before := eps[0].Stats()
	refusesDial(t, eps[0].cfg.Addrs[0])
	after := eps[0].Stats()
	if len(after.Peers) != 1 || after.Peers[0].Peer != 1 {
		t.Fatalf("peers after the stale knock = %+v, want rank 1 only", after.Peers)
	}
	if b, a := before.Peers[0], after.Peers[0]; a.FramesRecv != b.FramesRecv || a.BytesRecv != b.BytesRecv || a.CorruptFrames != b.CorruptFrames {
		t.Fatalf("the stale knock moved rank 0's counters: %+v -> %+v", b, a)
	}
	exchange(t, eps, 1)
	if got, want := eps[0].Stats().Peers[0].FramesRecv, before.Peers[0].FramesRecv+1; got != want {
		t.Errorf("frames recv = %d, want %d", got, want)
	}
}
