package netmpi

import (
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestFramePoolBalancedAfterChaos asserts the frame-buffer pool's ownership
// contract: every buffer checked out by a sender is returned, even when the
// send path exits through its error branches (injected connection close,
// write timeouts, failed peers). The counters are package-global, which
// is safe here because netmpi tests never run in parallel.
func TestFramePoolBalancedAfterChaos(t *testing.T) {
	gets0, _, _ := FramePoolStats()

	const victim = 1
	inj := faultinject.New(faultinject.Plan{
		Rules:     []faultinject.Rule{{Rank: victim, Peer: -1, AfterFrames: 2, Action: faultinject.Close}},
		SkipCount: IsHeartbeatFrame,
	})
	eps := faultWorld(t, 3, func(rank int, cfg *Config) {
		cfg.OpTimeout = 1500 * time.Millisecond
		cfg.HeartbeatInterval = 100 * time.Millisecond
		cfg.WrapConn = inj.WrapConn(rank)
	})
	errs := runAllErrs(t, eps, testBudget(t, 30*time.Second), func(ep *Endpoint) error {
		c := ep.Split([]int{0, 1, 2})
		buf := make([]float64, 512)
		for round := 0; round < 8; round++ {
			root := round % 3
			if ep.Rank() == root {
				for i := range buf {
					buf[i] = float64(round*1000 + i)
				}
			}
			if _, err := c.Bcast(buf, len(buf), root); err != nil {
				return err
			}
		}
		return nil
	})
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("chaos plan injected no failure — the test exercised no error paths")
	}

	// Stop the heartbeat goroutines (they check buffers out too), then wait
	// for every in-flight sender to unwind its deferred put.
	for _, ep := range eps {
		ep.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		gets, puts, news := FramePoolStats()
		if news > gets {
			t.Fatalf("pool minted %d buffers for %d checkouts — New ran outside Get", news, gets)
		}
		if gets == puts {
			if gets <= gets0 {
				t.Fatalf("pool counters did not move (gets %d, baseline %d) — the run sent no pooled frames", gets, gets0)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("frame pool leaked: %d gets vs %d puts after chaos run", gets, puts)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
