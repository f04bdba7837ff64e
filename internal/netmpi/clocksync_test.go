package netmpi

import (
	"math"
	"testing"
	"time"
)

// simExchange drives one clockSync with fabricated beat exchanges: a peer
// whose clock runs `skew` seconds ahead of ours, with one-way latencies
// and echo holds chosen per step. No real time passes — the tests model
// the four NTP timestamps directly, which is the point: the estimator's
// arithmetic is what's under test, not the scheduler.
type simExchange struct {
	cs   clockSync
	skew float64 // peer clock − local clock, seconds
	now  float64 // local clock cursor (nonzero so echoTs==0 stays "no echo")
}

// step simulates one completed exchange: we beat at t1, the peer receives
// it d1 later, holds it `hold` seconds, beats back, and that beat lands
// here d2 after it left.
func (s *simExchange) step(d1, d2, hold float64) {
	t1 := s.now
	t2 := t1 + d1 + s.skew // peer clock at receipt
	t3 := t2 + hold        // peer clock at its next beat
	t4 := t1 + d1 + hold + d2
	s.cs.noteBeat(t3, t1, hold, t4)
	s.now = t4 + 0.05
}

func TestClockSyncRecoversSkewWithSymmetricLatency(t *testing.T) {
	sim := &simExchange{skew: 3.25, now: 100}
	for i := 0; i < 8; i++ {
		sim.step(0.002, 0.002, 0.010)
	}
	offset, uncertainty, samples := sim.cs.estimate()
	if samples != 8 {
		t.Fatalf("took %d samples, want 8", samples)
	}
	if math.Abs(offset-3.25) > 1e-9 {
		t.Fatalf("symmetric latency must recover the skew exactly: got %.12f, want 3.25", offset)
	}
	if math.Abs(uncertainty-0.002) > 1e-9 {
		t.Fatalf("uncertainty must be rtt/2 = 2ms, got %.12f", uncertainty)
	}
}

func TestClockSyncAsymmetricLatencyErrorWithinUncertainty(t *testing.T) {
	const skew = -1.5
	sim := &simExchange{skew: skew, now: 100}
	d1, d2 := 0.001, 0.009 // strongly asymmetric path
	sim.step(d1, d2, 0.020)
	offset, uncertainty, _ := sim.cs.estimate()
	// The classic bias of the two-way estimate is (d1−d2)/2...
	wantErr := (d1 - d2) / 2
	if math.Abs((offset-skew)-wantErr) > 1e-9 {
		t.Fatalf("offset error = %.6f, want the latency-asymmetry bias %.6f", offset-skew, wantErr)
	}
	// ...and the ±rtt/2 bound must cover it, as estimate() promises.
	if math.Abs(offset-skew) > uncertainty {
		t.Fatalf("|error| %.6f exceeds the advertised uncertainty %.6f", math.Abs(offset-skew), uncertainty)
	}
}

func TestClockSyncWindowEvictsStaleMinRTT(t *testing.T) {
	sim := &simExchange{skew: 0.5, now: 100}
	sim.step(0.0005, 0.0005, 0.01) // one razor-sharp sample at the old skew

	// The peer's clock steps. The sharp pre-step sample keeps winning the
	// min-RTT filter until the ring overwrites it...
	sim.skew = 2.0
	for i := 0; i < clockWindow-1; i++ {
		sim.step(0.005, 0.005, 0.01)
	}
	offset, _, _ := sim.cs.estimate()
	if math.Abs(offset-0.5) > 1e-9 {
		t.Fatalf("min-RTT sample should still pin the estimate while in window: got %.6f", offset)
	}

	// ...one more sample wraps the ring and evicts it.
	sim.step(0.005, 0.005, 0.01)
	offset, uncertainty, samples := sim.cs.estimate()
	if math.Abs(offset-2.0) > 1e-9 {
		t.Fatalf("evicted sample still pinning the estimate: got %.6f, want 2.0", offset)
	}
	if math.Abs(uncertainty-0.005) > 1e-9 {
		t.Fatalf("uncertainty must follow the surviving window: got %.6f, want 5ms", uncertainty)
	}
	if samples != clockWindow+1 {
		t.Fatalf("total samples = %d, want %d", samples, clockWindow+1)
	}
}

func TestClockSyncUncertaintyMonotoneWhileWindowFills(t *testing.T) {
	sim := &simExchange{skew: 1.0, now: 100}
	// Varied RTTs, fewer than clockWindow so nothing ages out: the min-RTT
	// filter can then only hold or improve, never regress.
	halves := []float64{0.008, 0.012, 0.003, 0.009, 0.002, 0.007, 0.0015, 0.004}
	prev := math.Inf(1)
	for _, d := range halves {
		sim.step(d, d, 0.010)
		_, uncertainty, _ := sim.cs.estimate()
		if uncertainty > prev+1e-12 {
			t.Fatalf("uncertainty rose from %.6f to %.6f while the window was still filling", prev, uncertainty)
		}
		prev = uncertainty
	}
	if math.Abs(prev-0.0015) > 1e-9 {
		t.Fatalf("final uncertainty %.6f, want the best half-rtt 0.0015", prev)
	}
}

func TestClockSyncDiscardsNegativeRTTAndLegacyBeats(t *testing.T) {
	var cs clockSync
	// A beat that echoes nothing yet: refreshes echo state, takes no sample.
	cs.noteBeat(200, 0, 0, 100)
	if _, _, samples := cs.estimate(); samples != 0 {
		t.Fatalf("a beat echoing nothing must not produce a sample, got %d", samples)
	}
	if echoTs, _ := cs.echoState(101); echoTs != 200 {
		t.Fatalf("a beat echoing nothing must still refresh echo state, got echoTs %.1f", echoTs)
	}
	// An exchange whose hold exceeds the local elapsed time (a replayed
	// echo after reconnect, or a clock step) would yield rtt < 0 — it must
	// be discarded, not clamped to a fake zero-RTT winner.
	cs.noteBeat(300, 100, 10.0, 101)
	if offset, uncertainty, samples := cs.estimate(); samples != 0 || offset != 0 || uncertainty != 0 {
		t.Fatalf("negative-rtt exchange leaked a sample: offset %.3f ± %.3f, samples %d", offset, uncertainty, samples)
	}
}

func TestClockSyncEchoStateZeroBeforeFirstBeat(t *testing.T) {
	var cs clockSync
	if echoTs, echoHold := cs.echoState(123); echoTs != 0 || echoHold != 0 {
		t.Fatalf("echo state before any beat must be zeros, got (%.1f, %.1f)", echoTs, echoHold)
	}
}

// TestHeartbeatClockSamples exercises the real wire path: two endpoints
// beating at each other, each spending a stretch blocked in Recv (the only
// place beats are consumed). The staggered phases make rank 1 drain rank
// 0's beats first, so the beats rank 0 later drains carry echoes — closing
// the measurement loop. Clocks are shared, so the estimated offset must be
// near zero and inside its own uncertainty bound.
func TestHeartbeatClockSamples(t *testing.T) {
	eps := faultWorld(t, 2, func(rank int, cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.OpTimeout = 10 * time.Second
	})
	errs := runAllErrs(t, eps, testBudget(t, 30*time.Second), func(ep *Endpoint) error {
		buf := make([]float64, 8)
		peer := 1 - ep.Rank()
		if ep.Rank() == 0 {
			time.Sleep(250 * time.Millisecond) // rank 1 blocks in Recv, draining our beats
			if err := ep.Send(peer, 0, buf); err != nil {
				return err
			}
			_, err := ep.Recv(peer, 1) // now we block, draining beats that echo ours
			return err
		}
		if _, err := ep.Recv(peer, 0); err != nil {
			return err
		}
		time.Sleep(250 * time.Millisecond)
		return ep.Send(peer, 1, buf)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var ps *PeerStats
	st := eps[0].Stats()
	for i := range st.Peers {
		if st.Peers[i].Peer == 1 {
			ps = &st.Peers[i]
		}
	}
	if ps == nil {
		t.Fatal("no peer stats for rank 1")
	}
	if ps.ClockSamples == 0 {
		t.Fatal("no clock samples completed — the heartbeat echo loop never closed")
	}
	if math.Abs(ps.ClockOffsetSeconds) > 0.25 {
		t.Fatalf("shared-clock offset estimate %.3fs is implausible", ps.ClockOffsetSeconds)
	}
	if ps.ClockUncertaintySeconds < 0 {
		t.Fatalf("negative uncertainty %.6f", ps.ClockUncertaintySeconds)
	}
	if math.Abs(ps.ClockOffsetSeconds) > ps.ClockUncertaintySeconds+0.05 {
		t.Fatalf("offset %.4fs far outside uncertainty %.4fs on a shared clock",
			ps.ClockOffsetSeconds, ps.ClockUncertaintySeconds)
	}
}
