package netmpi

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// ringLens returns how many frames each connection of ep retains for
// retransmit and the largest ring capacity among them.
func ringLens(ep *Endpoint) (lens []int, maxCap int) {
	for _, rc := range ep.conns {
		if rc == nil {
			continue
		}
		rc.replayMu.Lock()
		lens = append(lens, len(rc.replay))
		maxCap = max(maxCap, cap(rc.replay))
		rc.replayMu.Unlock()
	}
	return lens, maxCap
}

// TestReplayRingEmptyWhenUnarmed: an endpoint with MaxRetries 0 never
// reconnects, so nothing can ask it for a retransmit, and it keeps no copy
// of what it sent — a 3-rank mesh that broadcasts 1 000 frames of 32 KiB
// leaves every connection's ring unallocated.
func TestReplayRingEmptyWhenUnarmed(t *testing.T) {
	const frames, elems = 1000, 32 << 10 / 8
	eps := localWorld(t, 3)
	runAll(t, eps, func(ep *Endpoint) error {
		c := ep.Split([]int{0, 1, 2})
		buf := make([]float64, elems)
		for i := 0; i < frames/2; i++ { // two frames per broadcast over 3 ranks
			if _, err := c.Bcast(buf, elems, i%3); err != nil {
				return err
			}
		}
		return nil
	})
	var sent int64
	for _, ep := range eps {
		for _, ps := range ep.Stats().Peers {
			sent += ps.FramesSent
		}
		if lens, maxCap := ringLens(ep); maxCap != 0 {
			t.Errorf("rank %d: unarmed connections retain %v frames (ring capacity %d)", ep.Rank(), lens, maxCap)
		}
	}
	if sent < frames {
		t.Fatalf("the mesh sent %d frames, want at least %d", sent, frames)
	}
}

// TestReplayRingAllocationFreeWhenArmed: an armed connection retains its
// last replayDepth small frames in slab buffers sized to each frame. A warm
// connection alternating 1 KiB and 48 KiB frames, whose sizes then shift
// against the ring's slots (a big frame evicting a small one, as when the
// next job's layout sends another sequence of sizes), allocates nothing per
// send, holds at most replayDepth entries, and never keeps a small frame in
// a big buffer.
func TestReplayRingAllocationFreeWhenArmed(t *testing.T) {
	const small, big = 1 << 10 / 8, 48 << 10 / 8
	eps := worldWith(t, []Config{
		{OpTimeout: 10 * time.Second, MaxRetries: 3},
		{OpTimeout: 10 * time.Second, MaxRetries: 3},
	})
	comms := []*Comm{eps[0].Split([]int{0, 1}), eps[1].Split([]int{0, 1})}
	bufs := [2][2][]float64{}
	for r := range bufs {
		bufs[r] = [2][]float64{make([]float64, small), make([]float64, big)}
	}
	// step broadcasts one frame of each size from rank 0, in the given
	// order, on both ranks at once.
	step := func(order [2]int) error {
		errs := make(chan error, 2)
		for r := range comms {
			go func() {
				for _, k := range order {
					if _, err := comms[r].Bcast(bufs[r][k], len(bufs[r][k]), 0); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		return errors.Join(<-errs, <-errs)
	}
	// Warm: small, big, … — every slot of the ring has held a frame.
	for i := 0; i < 2*replayDepth; i++ {
		if err := step([2]int{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Shifted: big, small, … — each big frame evicts a small one. Rank 1
	// runs in a goroutine kept for the whole measurement, so that nothing
	// but the broadcasts allocates.
	go1, done1 := make(chan bool), make(chan error, 1)
	go func() {
		for range go1 {
			var err error
			for _, k := range []int{1, 0} {
				if _, e := comms[1].Bcast(bufs[1][k], len(bufs[1][k]), 0); e != nil && err == nil {
					err = e
				}
			}
			done1 <- err
		}
	}()
	defer close(go1)
	allocs := testing.AllocsPerRun(replayDepth/2-1, func() {
		go1 <- true
		for _, k := range []int{1, 0} {
			if _, err := comms[0].Bcast(bufs[0][k], len(bufs[0][k]), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done1; err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 && !raceEnabled {
		t.Errorf("a warm armed connection allocates %v times per pair of sends", allocs)
	}
	rc := eps[0].conns[1]
	rc.replayMu.Lock()
	defer rc.replayMu.Unlock()
	if len(rc.replay) != replayDepth {
		t.Fatalf("rank 0 retains %d frames for rank 1, want %d", len(rc.replay), replayDepth)
	}
	for i, e := range rc.replay {
		if cap(e.data) > 2*len(e.data) { // the slab serves a request from at most twice its size
			t.Errorf("entry %d: a %d-element frame is kept in a %d-element buffer", i, len(e.data), cap(e.data))
		}
	}
}

// TestUnarmedSenderMissEscalates: a re-request that reaches a sender with
// MaxRetries 0 finds nothing retained and writes nothing, so the armed
// receiver that asked gives up at its op deadline (no heartbeats feed it)
// with a *PeerFailedError — the survivor-replan path, never a hang.
func TestUnarmedSenderMissEscalates(t *testing.T) {
	const opTimeout = 500 * time.Millisecond
	co := &corruptor{from: 1, count: 1}
	eps := worldWith(t, []Config{
		{OpTimeout: opTimeout, WrapConn: co.wrap}, // sender, unarmed
		{OpTimeout: opTimeout, MaxRetries: 3},     // receiver, armed: it redials rank 0
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = eps[0].Send(1, 7, []float64{1, 2, 3}) }()
	start := time.Now()
	_, err := eps[1].Recv(0, 7)
	elapsed := time.Since(start)
	wg.Wait()
	var pf *PeerFailedError
	if !errors.As(err, &pf) || pf.Rank != 0 {
		t.Fatalf("receiver got %v, want a PeerFailedError naming rank 0", err)
	}
	if bound := 4 * opTimeout; elapsed > bound {
		t.Fatalf("the receiver took %v to give up, want under %v", elapsed, bound)
	}
	rs := eps[1].Stats().Peers[0]
	if rs.CorruptFrames != 1 || rs.Rerequests != 1 || rs.FramesRecv != 0 {
		t.Fatalf("receiver: corrupt=%d rerequests=%d frames=%d, want 1/1/0", rs.CorruptFrames, rs.Rerequests, rs.FramesRecv)
	}
	if ss := eps[0].Stats().Peers[0]; ss.RetransmitFrames != 0 {
		t.Fatalf("the unarmed sender retransmitted %d frames", ss.RetransmitFrames)
	}
}

// TestLeaseFenceAllocatesNothing: the epoch fence a leased mesh runs before
// every job exchanges its P values over the cached world communicator into
// each endpoint's own buffer — a warm fence allocates nothing on any rank.
func TestLeaseFenceAllocatesNothing(t *testing.T) {
	eps := faultWorld(t, 3, func(rank int, cfg *Config) {
		cfg.OpTimeout = 10 * time.Second
		cfg.Epoch = 5
	})
	start, done := make(chan bool), make(chan error, 2)
	for _, ep := range eps[1:] {
		go func() {
			for range start {
				done <- ep.AgreeEpoch()
			}
		}()
	}
	defer close(start)
	fence := func() {
		start <- true
		start <- true
		err := eps[0].AgreeEpoch()
		for range eps[1:] {
			err = errors.Join(err, <-done)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	fence()
	if allocs := testing.AllocsPerRun(50, fence); allocs != 0 && !raceEnabled {
		t.Errorf("a warm 3-rank epoch fence allocates %v times", allocs)
	}
}
