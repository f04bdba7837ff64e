package netmpi

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDialCanceledByContext: canceling Config.Ctx aborts a mesh dial that
// would otherwise burn the whole DialTimeout against absent peers — the
// drain path must not park goroutines in redial backoff. The goroutine
// count returning to baseline is the leak check (run under -race in CI).
func TestDialCanceledByContext(t *testing.T) {
	// Reserve an address nobody listens on.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	own, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer own.Close()

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		// Rank 1 dials rank 0 (dead) and accepts from rank 2 (absent):
		// both setup paths must unblock on cancel.
		_, err := Dial(Config{
			Rank:        1,
			Addrs:       []string{deadAddr, own.Addr().String(), deadAddr},
			Listener:    own,
			DialTimeout: 30 * time.Second,
			Ctx:         ctx,
		})
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Dial succeeded against a dead world")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Dial still blocked 5s after cancel — cancellation not plumbed through")
	}
	// All setup goroutines (dialer, acceptor, ctx watcher) must unwind.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestReconnectWaitCanceledByContext: a rank parked waiting for a failed
// peer to redial must give up as soon as the context cancels, not after
// the reconnect budget.
func TestReconnectWaitCanceledByContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eps := faultWorld(t, 2, func(rank int, cfg *Config) {
		cfg.OpTimeout = 20 * time.Second // reconnect budget = min(OpTimeout, DialTimeout)
		cfg.DialTimeout = 20 * time.Second
		cfg.MaxRetries = 3
		cfg.Ctx = ctx
	})
	// Rank 0 (accept side) loses its connection to rank 1 and waits for a
	// redial that never comes: rank 1's endpoint is closed entirely.
	eps[1].Close()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := eps[0].Recv(1, 7)
	if err == nil {
		t.Fatal("Recv from a closed peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Recv took %v — the canceled context should have cut the reconnect wait", elapsed)
	}
}

// TestEpochMismatchRejectedAtHello: mesh setup must fail when ranks
// disagree on the epoch — a stale rank can never join a rebuilt mesh.
func TestEpochMismatchRejectedAtHello(t *testing.T) {
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
	errs := make([]error, 2)
	eps := make([]*Endpoint, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			eps[rank], errs[rank] = Dial(Config{
				Rank:        rank,
				Addrs:       addrs,
				Listener:    listeners[rank],
				DialTimeout: 5 * time.Second,
				OpTimeout:   2 * time.Second,
				Epoch:       uint32(rank), // rank 0 at epoch 0, rank 1 at epoch 1
			})
		}(r)
	}
	wg.Wait()
	for _, ep := range eps {
		if ep != nil {
			defer ep.Close()
		}
	}
	// The accepting rank (0) detects the mismatch directly; the dialing
	// rank (1) fails because its connection is closed or setup times out.
	if errs[0] == nil {
		t.Fatal("accepting rank joined a mesh with a mismatched epoch")
	}
	if !strings.Contains(errs[0].Error(), "epoch") {
		t.Fatalf("rejection does not name the epoch: %v", errs[0])
	}
}

// TestAgreeEpochMatches: the collective agreement passes on a healthy
// same-epoch world and acts as a barrier (all ranks return nil).
func TestAgreeEpochMatches(t *testing.T) {
	eps := faultWorld(t, 3, func(rank int, cfg *Config) {
		cfg.OpTimeout = 5 * time.Second
		cfg.Epoch = 7
	})
	errs := runAllErrs(t, eps, testBudget(t, 15*time.Second), func(ep *Endpoint) error {
		return ep.AgreeEpoch()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestAgreeEpochSingleRank: a one-rank world trivially agrees.
func TestAgreeEpochSingleRank(t *testing.T) {
	ep, err := Dial(Config{Rank: 0, Addrs: []string{"127.0.0.1:0"}, Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.AgreeEpoch(); err != nil {
		t.Fatal(err)
	}
}

// TestAgreeDigestMismatch: digests travel exactly, NaN bit patterns
// included, and a rank whose digest differs fails the agreement on every
// rank with both digests named.
func TestAgreeDigestMismatch(t *testing.T) {
	const same, other = uint64(0x7ff8_0000_0000_0001), uint64(0xfff0_0000_0000_0002)
	eps := faultWorld(t, 3, func(rank int, cfg *Config) { cfg.OpTimeout = 5 * time.Second })
	errs := runAllErrs(t, eps, testBudget(t, 15*time.Second), func(ep *Endpoint) error {
		if ep.Rank() == 2 {
			return ep.AgreeDigest(other)
		}
		return ep.AgreeDigest(same)
	})
	for r, err := range errs {
		want := "rank 2 has digest fff0000000000002"
		if r == 2 {
			want = "rank 0 has digest 7ff8000000000001"
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("rank %d: %v, want an error containing %q", r, err, want)
		}
	}
	errs = runAllErrs(t, eps, testBudget(t, 15*time.Second), func(ep *Endpoint) error { return ep.AgreeDigest(same) })
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: equal digests: %v", r, err)
		}
	}
}
