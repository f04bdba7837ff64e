package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func newTestWorld(t *testing.T, procs int) *World {
	t.Helper()
	w, err := NewWorld(Config{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{Procs: 0}); err == nil {
		t.Fatal("Procs=0 must fail")
	}
	w, err := NewWorld(Config{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.world.Size(); got != 3 {
		t.Fatalf("world communicator size = %d, want 3", got)
	}
}

func TestRunAllRanks(t *testing.T) {
	w := newTestWorld(t, 5)
	var seen int64
	err := w.Run(func(p *Proc) error {
		if got := p.CommWorld().Size(); got != 5 {
			t.Errorf("Size = %d", got)
		}
		atomic.AddInt64(&seen, 1<<uint(p.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 31 {
		t.Fatalf("ranks seen bitmap = %b", seen)
	}
}

func TestRunCollectsErrors(t *testing.T) {
	w := newTestWorld(t, 3)
	wantErr := errors.New("boom")
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			return wantErr
		}
		return nil
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestBcastWorldRealData(t *testing.T) {
	w := newTestWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		buf := make([]float64, 3)
		if p.Rank() == 2 {
			buf = []float64{1, 2, 3}
		}
		got := p.CommWorld().Bcast(p, buf, 3, 2)
		for i, v := range []float64{1, 2, 3} {
			if got[i] != v {
				return fmt.Errorf("rank %d got %v", p.Rank(), got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastNilReceiverGetsRootSlice(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		var buf []float64
		if p.Rank() == 0 {
			buf = []float64{7, 8}
		}
		got := p.CommWorld().Bcast(p, buf, 2, 0)
		if len(got) != 2 || got[0] != 7 {
			return fmt.Errorf("rank %d got %v", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastRootOutOfRangePanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		p.CommWorld().Bcast(p, nil, 0, 5)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want root-out-of-range panic, got %v", err)
	}
}

// TestCommRankMapping: the world communicator numbers every rank as the
// world does, and knows no other rank.
func TestCommRankMapping(t *testing.T) {
	w := newTestWorld(t, 4)
	for r := 0; r < 4; r++ {
		if got := w.world.RankOf(r); got != r {
			t.Fatalf("RankOf(%d) = %d, want %d", r, got, r)
		}
	}
	if w.world.RankOf(4) != -1 || w.world.RankOf(-1) != -1 {
		t.Fatal("RankOf must be -1 for a rank outside the world")
	}
}

func TestBarrier(t *testing.T) {
	w := newTestWorld(t, 3)
	var arrived atomic.Int32
	err := w.Run(func(p *Proc) error {
		arrived.Add(1)
		p.CommWorld().Barrier(p)
		if got := arrived.Load(); got != 3 {
			return fmt.Errorf("rank %d left the barrier with %d arrivals", p.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksStress(t *testing.T) {
	w := newTestWorld(t, 16)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		for i := 0; i < 50; i++ {
			root := i % c.Size()
			buf := make([]float64, 4)
			if p.Rank() == root {
				for j := range buf {
					buf[j] = float64(i*10 + j)
				}
			}
			c.Bcast(p, buf, 4, root)
			if buf[3] != float64(i*10+3) {
				return fmt.Errorf("iter %d rank %d got %v", i, p.Rank(), buf)
			}
			c.Barrier(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAbortUnblocksCollective(t *testing.T) {
	// Rank 1 exits with an error while the others enter a Bcast it will
	// never join. Without the abort machinery this deadlocks; with it the
	// blocked ranks get a typed *PeerFailedError naming rank 1.
	w := newTestWorld(t, 3)
	boom := errors.New("rank 1 died")
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			return boom
		}
		buf := []float64{1, 2}
		p.CommWorld().Bcast(p, buf, 2, 0)
		return nil
	})
	if err == nil {
		t.Fatal("Run must report the failure")
	}
	var pf *PeerFailedError
	if !errors.As(err, &pf) {
		t.Fatalf("want a *PeerFailedError in %v", err)
	}
	if pf.Rank != 1 {
		t.Fatalf("PeerFailedError names rank %d, want 1", pf.Rank)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("original cause lost from %v", err)
	}
}

func TestAbortErrorStringNamesRankAndOp(t *testing.T) {
	e := &PeerFailedError{Rank: 3, Op: "barrier", Err: errors.New("x")}
	if got := e.Error(); !strings.Contains(got, "rank 3") || !strings.Contains(got, "barrier") {
		t.Fatalf("unhelpful error string %q", got)
	}
}

func TestBcastLengthMismatchPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		// The receiver sized its buffer for 6 elements, the root sends 4:
		// copying "what fits" would leave a stale tail.
		n := 4
		if p.Rank() == 1 {
			n = 6
		}
		p.CommWorld().Bcast(p, make([]float64, n), n, 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "Bcast length mismatch") {
		t.Fatalf("want a length-mismatch panic, got %v", err)
	}
}

// TestCollectivesAllocateNothingPerCall pins the per-collective garbage at
// zero: the coordinator's gather scratch is reused. (Bcast allocates by
// design: it hands the receivers a copy of the root's buffer.)
func TestCollectivesAllocateNothingPerCall(t *testing.T) {
	w := newTestWorld(t, 1)
	if err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		allocs := testing.AllocsPerRun(100, func() { c.Barrier(p) })
		if allocs != 0 {
			return fmt.Errorf("%v allocations per Barrier, want 0", allocs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
