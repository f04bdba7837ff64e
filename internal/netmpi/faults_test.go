package netmpi

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// testBudget returns a timeout that respects the test binary's -timeout
// deadline: chaos tests must convert hangs into failures well before the
// harness kills the whole binary.
func testBudget(t *testing.T, fallback time.Duration) time.Duration {
	t.Helper()
	if d, ok := t.Deadline(); ok {
		if r := time.Until(d) - 2*time.Second; r > 0 && r < fallback {
			return r
		}
	}
	return fallback
}

// faultWorld is localWorld with a per-rank Config hook.
func faultWorld(t *testing.T, p int, mutate func(rank int, cfg *Config)) []*Endpoint {
	t.Helper()
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
			cfg := Config{Rank: rank, Addrs: addrs, Listener: listeners[rank]}
			if mutate != nil {
				mutate(rank, &cfg)
			}
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
			ep.Close()
		}
	})
	return eps
}

// runAllErrs executes fn on every endpoint concurrently and returns the
// per-rank errors, failing the test if any rank is still blocked after the
// budget (the whole point of the fault machinery is that nothing hangs).
func runAllErrs(t *testing.T, eps []*Endpoint, budget time.Duration, fn func(*Endpoint) error) []error {
	t.Helper()
	errs := make([]error, len(eps))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, ep := range eps {
		wg.Add(1)
		go func(i int, ep *Endpoint) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("rank %d panicked: %v", i, r)
				}
			}()
			errs[i] = fn(ep)
		}(i, ep)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(budget):
		t.Fatalf("ranks still blocked after %v — fault detection failed to convert a hang into an error", budget)
	}
	return errs
}

func TestConfigDefaults(t *testing.T) {
	got := Config{}.withDefaults()
	if got.DialTimeout != 10*time.Second {
		t.Fatalf("zero DialTimeout must default to the documented 10s, got %v", got.DialTimeout)
	}
	if kept := (Config{DialTimeout: time.Second}).withDefaults(); kept.DialTimeout != time.Second {
		t.Fatal("explicit values must be preserved")
	}
	// Dial must apply the default, not just document it.
	ep, err := Dial(Config{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if ep.cfg.DialTimeout != 10*time.Second {
		t.Fatalf("Dial stored DialTimeout %v, want the 10s default", ep.cfg.DialTimeout)
	}
}

func TestDialExhaustsRetries(t *testing.T) {
	// Reserve a port and close it so nothing listens there.
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

	start := time.Now()
	_, err = Dial(Config{
		Rank:        1,
		Addrs:       []string{deadAddr, own.Addr().String()},
		Listener:    own,
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dialing a dead peer must fail once retries are exhausted")
	}
	var pf *PeerFailedError
	if !errors.As(err, &pf) {
		t.Fatalf("want *PeerFailedError, got %T: %v", err, err)
	}
	if pf.Rank != 0 || pf.Op != "dial" {
		t.Fatalf("got PeerFailedError{Rank:%d, Op:%q}, want rank 0, op dial", pf.Rank, pf.Op)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial failure took %v, want bounded by the retry budget", elapsed)
	}
}

func TestPeerClosesMidBcast(t *testing.T) {
	const victim = 2
	inj := faultinject.New(faultinject.Plan{
		Rules:     []faultinject.Rule{{Rank: victim, Peer: -1, AfterFrames: 1, Action: faultinject.Close}},
		SkipCount: IsHeartbeatFrame,
	})
	eps := faultWorld(t, 3, func(rank int, cfg *Config) {
		cfg.OpTimeout = 1500 * time.Millisecond
		cfg.WrapConn = inj.WrapConn(rank)
	})
	errs := runAllErrs(t, eps, testBudget(t, 15*time.Second), func(ep *Endpoint) error {
		c := ep.Split([]int{0, 1, 2})
		buf := make([]float64, 8)
		if ep.Rank() == victim {
			for i := range buf {
				buf[i] = float64(i)
			}
		}
		_, err := c.Bcast(buf, len(buf), victim)
		return err
	})
	// The victim's first frame to each peer is cut: survivors must see a
	// typed failure naming the victim — via EOF where the close raced the
	// read, via the deadline where the frame never went out.
	for _, r := range []int{0, 1} {
		var pf *PeerFailedError
		if !errors.As(errs[r], &pf) {
			t.Fatalf("rank %d: want *PeerFailedError, got %v", r, errs[r])
		}
		if pf.Rank != victim || pf.Op != "bcast" {
			t.Fatalf("rank %d: got PeerFailedError{Rank:%d, Op:%q}, want rank %d during bcast", r, pf.Rank, pf.Op, victim)
		}
	}
	if errs[victim] == nil {
		t.Fatal("the victim's own sends must fail too")
	}
}

func TestHeartbeatKeepsSlowPeerAlive(t *testing.T) {
	// A peer that is alive but busy (long local compute) must NOT be
	// declared failed: its heartbeats keep resetting the read deadline.
	eps := faultWorld(t, 2, func(rank int, cfg *Config) {
		cfg.OpTimeout = 400 * time.Millisecond
		cfg.HeartbeatInterval = 50 * time.Millisecond
	})
	errs := runAllErrs(t, eps, testBudget(t, 15*time.Second), func(ep *Endpoint) error {
		if ep.Rank() == 1 {
			time.Sleep(1200 * time.Millisecond) // 3× the op deadline
		}
		return ep.Split([]int{0, 1}).Barrier()
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: a slow-but-beating peer was declared failed: %v", r, err)
		}
	}
}

func TestHeartbeatDeclaresDeadRankDuringBarrier(t *testing.T) {
	// Rank 1 goes one-way silent (writes blackholed from its first real
	// frame on, heartbeats included): rank 0's read deadline must declare
	// it dead mid-Barrier.
	const victim = 1
	inj := faultinject.New(faultinject.Plan{
		Rules:     []faultinject.Rule{{Rank: victim, Peer: -1, AfterFrames: 1, Action: faultinject.Drop}},
		SkipCount: IsHeartbeatFrame,
	})
	eps := faultWorld(t, 2, func(rank int, cfg *Config) {
		cfg.OpTimeout = 600 * time.Millisecond
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.WrapConn = inj.WrapConn(rank)
	})
	budget := testBudget(t, 15*time.Second)
	errCh := make(chan error, 1)
	go func() {
		errCh <- eps[0].Split([]int{0, 1}).Barrier()
	}()
	go func() {
		// The victim arrives (its frame is silently dropped) and then
		// blocks in the closing broadcast until its own deadline fires.
		eps[victim].Split([]int{0, 1}).Barrier()
	}()
	select {
	case err := <-errCh:
		var pf *PeerFailedError
		if !errors.As(err, &pf) {
			t.Fatalf("want *PeerFailedError, got %v", err)
		}
		if pf.Rank != victim || pf.Op != "barrier" {
			t.Fatalf("got PeerFailedError{Rank:%d, Op:%q}, want rank %d during barrier", pf.Rank, pf.Op, victim)
		}
	case <-time.After(budget):
		t.Fatal("Barrier against a silent peer hung")
	}
}

func TestKilledRankSurfacesThroughRunRank(t *testing.T) {
	// The acceptance scenario: a rank is killed mid-collective (all its
	// connections cut at a seed-chosen frame) while the unmodified
	// SummaGen engine runs over TCP. Every surviving rank must get a
	// clean *PeerFailedError — never a hang — and the detecting ranks
	// must name the victim.
	const n = 48
	const opTimeout = 1500 * time.Millisecond
	rng := rand.New(rand.NewSource(11))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	areas, err := balance.Proportional(n*n, []float64{1, 2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(partition.SquareCorner, n, areas)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan, victim := faultinject.RandomKillPlan(seed, 3, 2)
			plan.SkipCount = IsHeartbeatFrame
			inj := faultinject.New(plan)
			eps := faultWorld(t, 3, func(rank int, cfg *Config) {
				cfg.OpTimeout = opTimeout
				cfg.HeartbeatInterval = 100 * time.Millisecond
				cfg.WrapConn = inj.WrapConn(rank)
			})
			start := time.Now()
			errs := runAllErrs(t, eps, testBudget(t, 20*time.Second), func(ep *Endpoint) error {
				ar, br := a.Clone(), b.Clone()
				c := matrix.New(n, n)
				return core.RunRank(ep.Proc(), core.Config{Layout: layout}, ar, br, c)
			})
			elapsed := time.Since(start)
			namedVictim := false
			for r, err := range errs {
				if r == victim {
					if err == nil {
						t.Errorf("victim rank %d completed despite its connections being cut", r)
					}
					continue
				}
				if err == nil {
					continue // finished its share before the failure touched it
				}
				var pf *PeerFailedError
				if !errors.As(err, &pf) {
					t.Errorf("rank %d: want *PeerFailedError, got %v", r, err)
					continue
				}
				if pf.Rank == victim {
					namedVictim = true
				}
			}
			if !namedVictim {
				t.Errorf("seed %d: no survivor named the killed rank %d; errs=%v", seed, victim, errs)
			}
			// Failure must be detected within the configured deadline
			// plus scheduling slack, not eventually.
			if limit := 4*opTimeout + 2*time.Second; elapsed > limit {
				t.Errorf("detection took %v, want < %v", elapsed, limit)
			}
		})
	}
}

func TestAcceptSideMeshTimeout(t *testing.T) {
	// The lowest rank only accepts during mesh setup. If a higher rank
	// never arrives, Dial must fail within DialTimeout, not hang in
	// Accept forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	start := time.Now()
	_, err = Dial(Config{
		Rank:        0,
		Addrs:       []string{ln.Addr().String(), "127.0.0.1:1"},
		Listener:    ln,
		DialTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("mesh setup with a missing higher rank must fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("accept-side setup failure took %v, want ~DialTimeout", elapsed)
	}
}
