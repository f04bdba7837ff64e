package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/matrix"
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
	if w.Size() != 3 {
		t.Fatalf("Size = %d, want 3", w.Size())
	}
}

func TestRunAllRanks(t *testing.T) {
	w := newTestWorld(t, 5)
	var seen int64
	err := w.Run(func(p *Proc) error {
		if p.Size() != 5 {
			t.Errorf("Size = %d", p.Size())
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

func TestSplitSubCommunicator(t *testing.T) {
	w := newTestWorld(t, 4)
	err := w.Run(func(p *Proc) error {
		// Ranks {0,2} and {1,3} form two communicators; broadcast inside
		// each.
		var group []int
		if p.Rank()%2 == 0 {
			group = []int{0, 2}
		} else {
			group = []int{3, 1} // order-insensitive
		}
		c := p.Split(group)
		if c.Size() != 2 {
			return fmt.Errorf("comm size %d", c.Size())
		}
		buf := make([]float64, 1)
		if c.RankOf(p.Rank()) == 0 {
			buf[0] = float64(p.Rank() + 100)
		}
		c.Bcast(p, buf, 1, 0)
		wantRoot := 0
		if p.Rank()%2 == 1 {
			wantRoot = 1
		}
		if buf[0] != float64(wantRoot+100) {
			return fmt.Errorf("rank %d got %v", p.Rank(), buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitReusesComm(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		c1 := p.Split([]int{0, 1})
		c2 := p.Split([]int{1, 0})
		if c1 != c2 {
			return errors.New("same rank set must give same comm")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitMisusePanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Split([]int{1}) // not a member
		} else {
			p.Split([]int{1})
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "does not belong") {
		t.Fatalf("want membership panic, got %v", err)
	}
}

func TestCommRankMapping(t *testing.T) {
	w := newTestWorld(t, 4)
	var c *Comm
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 || p.Rank() == 3 {
			cc := p.Split([]int{3, 0})
			if p.Rank() == 0 {
				c = cc
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ranks(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Ranks = %v", got)
	}
	if c.RankOf(3) != 1 || c.RankOf(0) != 0 || c.RankOf(2) != -1 {
		t.Fatal("RankOf wrong")
	}
	if c.WorldRank(1) != 3 {
		t.Fatal("WorldRank wrong")
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
			root := i % p.Size()
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

// TestBcastPanelStridedCopy: the root's strided view lands in every
// member's strided destination, the root's own included, and only there.
func TestBcastPanelStridedCopy(t *testing.T) {
	const h, w, srcStride, dstStride = 3, 2, 5, 4
	src := matrix.New(4, srcStride)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	world := newTestWorld(t, 3)
	err := world.Run(func(p *Proc) error {
		dst := matrix.New(h+1, dstStride)
		dst.Fill(-1)
		sv := matrix.Dense{Rows: h, Cols: w, Stride: srcStride, Data: src.Data[1*srcStride+2:]}
		dv := matrix.Dense{Rows: h, Cols: w, Stride: dstStride, Data: dst.Data[1:]}
		if p.Rank() != 1 {
			sv = matrix.Dense{} // read on the root only
		}
		p.CommWorld().BcastPanel(p, sv, matrix.Into(dv), 1)
		for i := 0; i < h+1; i++ {
			for j := 0; j < dstStride; j++ {
				want := -1.0
				if i < h && j >= 1 && j < 1+w {
					want = src.At(1+i, 2+j-1)
				}
				if got := dst.At(i, j); got != want {
					return fmt.Errorf("rank %d dst(%d,%d) = %v, want %v", p.Rank(), i, j, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastPanelMismatchPanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		rows := 2 + p.Rank() // rank 1 expects a taller panel than the root sends
		m := matrix.New(rows, 3)
		p.CommWorld().BcastPanel(p, *m, matrix.Into(*matrix.New(rows, 3)), 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "BcastPanel length mismatch") {
		t.Fatalf("want a length-mismatch panic, got %v", err)
	}
}

// TestCollectivesAllocateNothingPerCall pins the per-collective garbage at
// zero: the coordinator's gather scratch is reused.
func TestCollectivesAllocateNothingPerCall(t *testing.T) {
	w := newTestWorld(t, 1)
	if err := w.Run(func(p *Proc) error {
		ranks := []int{0}
		c := p.Split(ranks)
		src, dst := matrix.New(1, 1), matrix.New(1, 1)
		allocs := testing.AllocsPerRun(100, func() {
			p.Split(ranks)
			c.Barrier(p)
			c.BcastPanel(p, *src, matrix.Into(*dst), 0)
		})
		if allocs != 0 {
			return fmt.Errorf("%v allocations per Split+Barrier+BcastPanel, want 0", allocs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
