package netmpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// postBudget returns the post budget of every connection of eps, failing
// the test unless they are all equal; 0 skips it (no read-back here).
func postBudget(t *testing.T, eps []*Endpoint) int {
	t.Helper()
	budget := -1
	for _, ep := range eps {
		for _, rc := range ep.conns {
			if rc == nil {
				continue
			}
			if budget >= 0 && rc.budget != budget {
				t.Fatalf("rank %d's connection to %d has budget %d, another %d", ep.rank, rc.peer, rc.budget, budget)
			}
			budget = rc.budget
		}
	}
	if budget <= 0 {
		t.Skip("this platform reads no send buffer back, so nothing is posted")
	}
	return budget
}

// setPostBudget gives every connection of eps the post budget n, wrapped
// ones included: a test-only stand-in for the budget that only a bare TCP
// connection gets.
func setPostBudget(eps []*Endpoint, n int) {
	for _, ep := range eps {
		for _, rc := range ep.conns {
			if rc != nil {
				rc.budget = n
			}
		}
	}
}

// multiplyShared runs core.RunRank on every endpoint over shared A and B
// into one C, each rank writing only the cells it owns, and returns C and
// how long the ranks took; the test fails if they are not done within
// budget.
func multiplyShared(t *testing.T, eps []*Endpoint, l *partition.Layout, a, b *matrix.Dense, budget time.Duration) (*matrix.Dense, time.Duration) {
	t.Helper()
	c := matrix.New(l.N, l.N)
	start := time.Now()
	errs := runAllErrs(t, eps, budget, func(ep *Endpoint) error {
		return core.RunRank(ep.Proc(), core.Config{Layout: l}, a, b, c)
	})
	elapsed := time.Since(start)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return c, elapsed
}

// requireDgemm fails the test unless got is bit-identical to the one-rank
// DGEMM of a and b.
func requireDgemm(t *testing.T, what string, a, b, got *matrix.Dense) {
	t.Helper()
	n := a.Rows
	want := matrix.New(n, n)
	if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
		t.Fatal(err)
	}
	for k := range want.Data {
		if math.Float64bits(got.Data[k]) != math.Float64bits(want.Data[k]) {
			t.Fatalf("%s: C[%d,%d] = %v, one-rank DGEMM gives %v", what, k/n, k%n, got.Data[k], want.Data[k])
		}
	}
}

// sentFrames returns every endpoint's data frames sent and posted.
func sentFrames(eps []*Endpoint) (sent, posted int64) {
	for _, ep := range eps {
		for _, rc := range ep.conns {
			if rc != nil {
				sent += rc.stats.framesSent.Load()
				posted += rc.stats.framesPosted.Load()
			}
		}
	}
	return sent, posted
}

// requireNothingParked fails the test if any connection holds a frame that
// arrived before it was awaited: posted frames must reach each receiver in
// the order it reads them.
func requireNothingParked(t *testing.T, what string, eps []*Endpoint) {
	t.Helper()
	for _, ep := range eps {
		for _, rc := range ep.conns {
			if rc == nil {
				continue
			}
			rc.rmu.Lock()
			parked := len(rc.pending)
			rc.rmu.Unlock()
			if parked != 0 {
				t.Fatalf("%s: rank %d parked %d keys from rank %d", what, ep.rank, parked, rc.peer)
			}
		}
	}
}

// TestBcastPanelPostsEveryRootPanel: at N = 128 every panel fits the post
// budget, so on every paper shape each rank sends every panel it roots in
// its stages' post passes — every data frame on the wire is a posted one —
// no frame is parked, and the product is bit-identical to a one-rank DGEMM.
func TestBcastPanelPostsEveryRootPanel(t *testing.T) {
	const n = 128
	eps := localWorld(t, 3)
	postBudget(t, eps)
	rng := rand.New(rand.NewSource(5))
	a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	for k, l := range benchLayouts(t, n) {
		sent0, posted0 := sentFrames(eps)
		c, _ := multiplyShared(t, eps, l, a, b, testBudget(t, 30*time.Second))
		sent1, posted1 := sentFrames(eps)
		what := partition.Shapes[k].String()
		if sent1 == sent0 || posted1-posted0 != sent1-sent0 {
			t.Errorf("%s: %d of %d data frames posted, want all", what, posted1-posted0, sent1-sent0)
		}
		requireNothingParked(t, what, eps)
		requireDgemm(t, what, a, b, c)
	}
}

// TestBcastPanelPostNoHangN2048: at N = 2048 every panel of the 1D layout
// exceeds the post budget, so no rank may post one: three ranks that each
// wrote a panel to peers that are writing theirs would wait on each other
// for good. With summagen's default op deadline and heartbeats, the multiply
// must end with the exact product in about the time of a run with posting
// off.
func TestBcastPanelPostNoHangN2048(t *testing.T) {
	const n = 2048
	eps := faultWorld(t, 3, func(_ int, cfg *Config) {
		cfg.OpTimeout = 30 * time.Second
		cfg.HeartbeatInterval = 2 * time.Second
	})
	budget := postBudget(t, eps)
	l := benchLayouts(t, n)[3]
	for i := 0; i < l.GridRows; i++ {
		for j := 0; j < l.GridCols; j++ {
			if panel := 8 * l.RowHeights[i] * l.ColWidths[j]; panel <= budget {
				t.Fatalf("cell (%d,%d) is a %d-byte panel, inside the %d-byte budget", i, j, panel, budget)
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	setPostBudget(eps, 0)
	_, inOrder := multiplyShared(t, eps, l, a, b, testBudget(t, 120*time.Second))
	setPostBudget(eps, budget)
	c, posting := multiplyShared(t, eps, l, a, b, testBudget(t, 120*time.Second))
	t.Logf("in order %v, posting %v, budget %d B", inOrder, posting, budget)
	if limit := 10*inOrder + 5*time.Second; posting > limit {
		t.Errorf("the multiply took %v with posting on, %v without", posting, inOrder)
	}
	requireDgemm(t, "N=2048", a, b, c)
}

// commSeqs returns, per communicator id, the tag counter of each member
// endpoint in eps.
func commSeqs(eps []*Endpoint) map[uint32][]uint32 {
	seqs := map[uint32][]uint32{}
	for _, ep := range eps {
		ep.mu.Lock()
		for id, c := range ep.comms {
			seqs[id] = append(seqs[id], c.seq)
		}
		ep.mu.Unlock()
	}
	return seqs
}

// TestLeaseFenceKeepsPostedTagsInStep: two multiplies of different layouts,
// each followed by the AgreeEpoch fence a leased mesh runs, back to back on
// one warm mesh with posting on. After each, every member of every
// communicator holds the same tag counter, nothing is parked, and both
// products are exact: a posted broadcast takes its tag from the schedule,
// and the fence's own tag, on the world communicator the square-rectangle
// layout broadcasts over too, comes out the same on every rank.
func TestLeaseFenceKeepsPostedTagsInStep(t *testing.T) {
	eps := faultWorld(t, 3, func(_ int, cfg *Config) { cfg.OpTimeout = 5 * time.Second })
	postBudget(t, eps)
	rng := rand.New(rand.NewSource(17))
	for round, step := range []struct {
		n     int
		shape int // index into partition.Shapes
	}{{128, 1}, {96, 3}, {128, 1}} {
		a, b := matrix.Random(step.n, step.n, rng), matrix.Random(step.n, step.n, rng)
		l := benchLayouts(t, step.n)[step.shape]
		_, posted0 := sentFrames(eps)
		c, _ := multiplyShared(t, eps, l, a, b, testBudget(t, 30*time.Second))
		if _, posted1 := sentFrames(eps); posted1 == posted0 {
			t.Fatalf("round %d: nothing was posted", round)
		}
		what := fmt.Sprintf("round %d (%v, N=%d)", round, partition.Shapes[step.shape], step.n)
		requireDgemm(t, what, a, b, c)
		runAll(t, eps, func(ep *Endpoint) error { return ep.AgreeEpoch() })
		for id, seqs := range commSeqs(eps) {
			for _, s := range seqs {
				if s != seqs[0] {
					t.Fatalf("round %d: communicator %#x has tag counters %v", round, id, seqs)
				}
			}
		}
		requireNothingParked(t, what, eps)
	}
}

// requirePeerFailed fails the test unless every error in errs is a
// *PeerFailedError.
func requirePeerFailed(t *testing.T, errs []error) {
	t.Helper()
	for r, err := range errs {
		var pf *PeerFailedError
		if !errors.As(err, &pf) {
			t.Errorf("rank %d ended with %v, want a *PeerFailedError", r, err)
		}
	}
}

// TestCorruptFramePostedPanel: the first data frame rank 0 writes, a panel
// its first stage posts, fails its CRC. Rank 0's connections are wrapped by
// the corruptor, which never holds a write back, so they get by hand the
// post budget the bare connections of ranks 1 and 2 read back. Every rank
// must end with a *PeerFailedError, the receiver's naming rank 0 and the
// corrupt frame, within the op deadlines.
func TestCorruptFramePostedPanel(t *testing.T) {
	const n, opTimeout = 128, 1500 * time.Millisecond
	co := &corruptor{from: 1, count: 1}
	eps := faultWorld(t, 3, func(rank int, cfg *Config) {
		cfg.OpTimeout = opTimeout
		cfg.HeartbeatInterval = 100 * time.Millisecond
		if rank == 0 {
			cfg.WrapConn = co.wrap
		}
	})
	setPostBudget(eps, postBudget(t, eps[1:]))
	rng := rand.New(rand.NewSource(3))
	a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	l := benchLayouts(t, n)[0]
	start := time.Now()
	errs := runAllErrs(t, eps, testBudget(t, 30*time.Second), func(ep *Endpoint) error {
		return core.RunRank(ep.Proc(), core.Config{Layout: l}, a, b, matrix.New(n, n))
	})
	elapsed := time.Since(start)
	requirePeerFailed(t, errs)
	if _, posted := sentFrames(eps[:1]); posted == 0 {
		t.Fatal("rank 0 posted nothing")
	}
	var cfe *CorruptFrameError
	if !errors.As(errors.Join(errs...), &cfe) || cfe.Peer != 0 {
		t.Fatalf("no rank saw rank 0's corrupt frame: %v", errs)
	}
	if limit := 4*opTimeout + 2*time.Second; elapsed > limit {
		t.Errorf("the ranks took %v to fail, want < %v", elapsed, limit)
	}
}

// TestPostedPanelPeerKilledMidStage: on a bare mesh with posting on, rank 2's
// endpoint closes once rank 0 has posted a panel, while the others are
// inside their first stage. Ranks 0 and 1 must end with a *PeerFailedError within
// the op deadlines.
func TestPostedPanelPeerKilledMidStage(t *testing.T) {
	const n, opTimeout = 128, 1500 * time.Millisecond
	eps := faultWorld(t, 3, func(_ int, cfg *Config) {
		cfg.OpTimeout = opTimeout
		cfg.HeartbeatInterval = 100 * time.Millisecond
	})
	postBudget(t, eps)
	rng := rand.New(rand.NewSource(13))
	a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	l := benchLayouts(t, n)[1] // square-rectangle: one band has all three ranks
	start := time.Now()
	errs := runAllErrs(t, eps, testBudget(t, 30*time.Second), func(ep *Endpoint) error {
		if ep.rank != 2 {
			return core.RunRank(ep.Proc(), core.Config{Layout: l}, a, b, matrix.New(n, n))
		}
		defer ep.Close()
		for wait := time.Now(); time.Since(wait) < opTimeout; time.Sleep(50 * time.Microsecond) {
			if _, posted := sentFrames(eps[:1]); posted > 0 {
				return nil
			}
		}
		return errors.New("rank 0 posted nothing")
	})
	elapsed := time.Since(start)
	if errs[2] != nil {
		t.Fatal(errs[2])
	}
	requirePeerFailed(t, errs[:2])
	if limit := 4*opTimeout + 2*time.Second; elapsed > limit {
		t.Errorf("the ranks took %v to fail, want < %v", elapsed, limit)
	}
}
