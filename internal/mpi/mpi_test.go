package mpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/hockney"
	"repro/internal/matrix"
	"repro/internal/trace"
)

func newTestWorld(t *testing.T, procs int, mode Mode, tl *trace.Timeline) *World {
	t.Helper()
	w, err := NewWorld(Config{Procs: procs, Mode: mode, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{Procs: 0}); err == nil {
		t.Fatal("Procs=0 must fail")
	}
	if _, err := NewWorld(Config{Procs: 2, Link: hockney.Link{Alpha: -1}}); err == nil {
		t.Fatal("invalid link must fail")
	}
	w, err := NewWorld(Config{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if w.Size() != 3 || w.Mode() != RealTime {
		t.Fatalf("defaults wrong: %+v", w.cfg)
	}
	if w.Link() != hockney.IntraNode {
		t.Fatal("default link must be IntraNode")
	}
}

func TestRunAllRanks(t *testing.T) {
	w := newTestWorld(t, 5, RealTime, nil)
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
	w := newTestWorld(t, 3, RealTime, nil)
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
	w := newTestWorld(t, 2, RealTime, nil)
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
	w := newTestWorld(t, 4, RealTime, nil)
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
	w := newTestWorld(t, 2, RealTime, nil)
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
	w := newTestWorld(t, 2, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		p.CommWorld().Bcast(p, nil, 0, 5)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want root-out-of-range panic, got %v", err)
	}
}

func TestSplitSubCommunicator(t *testing.T) {
	w := newTestWorld(t, 4, RealTime, nil)
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
	w := newTestWorld(t, 2, RealTime, nil)
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
	w := newTestWorld(t, 2, RealTime, nil)
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
	w := newTestWorld(t, 4, RealTime, nil)
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
	w := newTestWorld(t, 3, RealTime, nil)
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

func TestSendRecv(t *testing.T) {
	w := newTestWorld(t, 2, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 7, []float64{3.14})
			got := p.Recv(1, 8)
			if got[0] != 2.71 {
				return fmt.Errorf("got %v", got)
			}
		} else {
			got := p.Recv(0, 7)
			if got[0] != 3.14 {
				return fmt.Errorf("got %v", got)
			}
			p.Send(0, 8, []float64{2.71})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := newTestWorld(t, 2, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			buf := []float64{1}
			p.Send(1, 0, buf)
			buf[0] = 99 // mutate after send; receiver must see 1
		} else {
			if got := p.Recv(0, 0); got[0] != 1 {
				return fmt.Errorf("send did not copy: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvInvalidRankPanics(t *testing.T) {
	w := newTestWorld(t, 1, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		p.Send(3, 0, nil)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "invalid rank") {
		t.Fatalf("want invalid-rank panic, got %v", err)
	}
}

func TestVirtualClockBcast(t *testing.T) {
	tl := trace.New()
	w, err := NewWorld(Config{
		Procs:    3,
		Mode:     VirtualTime,
		Link:     hockney.Link{Alpha: 1, Beta: 0}, // 1s per hop
		Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]float64, 3)
	err = w.Run(func(p *Proc) error {
		// Rank r computes for r seconds first, so clocks are skewed.
		p.Compute(float64(p.Rank()), 0, "warmup")
		p.CommWorld().Bcast(p, nil, 10, 0)
		clocks[p.Rank()] = p.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All clocks must equal max(0,1,2) + ceil(log2(3)) * 1 = 2 + 2 = 4.
	for r, c := range clocks {
		if math.Abs(c-4) > 1e-12 {
			t.Fatalf("rank %d clock = %v, want 4", r, c)
		}
	}
	// Rank 0 and 1 must have idle events (they waited for rank 2).
	bs := tl.Summarize()
	if bs[0].IdleTime != 2 || bs[1].IdleTime != 1 || bs[2].IdleTime != 0 {
		t.Fatalf("idle times: %v %v %v", bs[0].IdleTime, bs[1].IdleTime, bs[2].IdleTime)
	}
	for r := 0; r < 3; r++ {
		if math.Abs(bs[r].CommTime-2) > 1e-12 {
			t.Fatalf("rank %d comm = %v, want 2", r, bs[r].CommTime)
		}
	}
}

func TestVirtualClockSendRecv(t *testing.T) {
	link := hockney.Link{Alpha: 0.5, Beta: 0.125} // per byte
	w, err := NewWorld(Config{Procs: 2, Mode: VirtualTime, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	var recvClock float64
	err = w.Run(func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, []float64{1}) // 8 bytes
			if math.Abs(p.Now()-0.5) > 1e-12 {
				return fmt.Errorf("sender clock %v, want 0.5 (alpha)", p.Now())
			}
		} else {
			p.Recv(0, 0)
			recvClock = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Receiver: sync to sender's 0.5, then 8 bytes * 0.125 = 1.0 → 1.5.
	if math.Abs(recvClock-1.5) > 1e-12 {
		t.Fatalf("receiver clock = %v, want 1.5", recvClock)
	}
}

func TestVirtualCompute(t *testing.T) {
	tl := trace.New()
	w, _ := NewWorld(Config{Procs: 1, Mode: VirtualTime, Timeline: tl})
	err := w.Run(func(p *Proc) error {
		p.Compute(2, 1e9, "gemm")
		if p.Now() != 2 {
			return fmt.Errorf("clock = %v", p.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bs := tl.Summarize()
	if bs[0].ComputeTime != 2 || bs[0].Flops != 1e9 {
		t.Fatalf("breakdown: %+v", bs[0])
	}
}

func TestRealTimeEventsRecorded(t *testing.T) {
	tl := trace.New()
	w, _ := NewWorld(Config{Procs: 2, Mode: RealTime, Timeline: tl})
	err := w.Run(func(p *Proc) error {
		p.CommWorld().Barrier(p)
		p.Compute(0, 42, "noop")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Len() < 3 {
		t.Fatalf("expected barrier+compute events, got %d", tl.Len())
	}
}

func TestVirtualDeterminism(t *testing.T) {
	run := func() []float64 {
		w, _ := NewWorld(Config{Procs: 3, Mode: VirtualTime, Link: hockney.Link{Alpha: 1e-6, Beta: 1e-9}})
		clocks := make([]float64, 3)
		err := w.Run(func(p *Proc) error {
			for iter := 0; iter < 5; iter++ {
				p.Compute(float64(p.Rank()+1)*0.1, 0, "w")
				p.CommWorld().Bcast(p, nil, 1000, iter%3)
			}
			clocks[p.Rank()] = p.Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return clocks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("virtual time not deterministic: %v vs %v", a, b)
		}
	}
}

func TestManyRanksStress(t *testing.T) {
	w := newTestWorld(t, 16, RealTime, nil)
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

func TestReduceSum(t *testing.T) {
	w := newTestWorld(t, 3, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		buf := []float64{float64(p.Rank()), 1}
		got := p.CommWorld().ReduceSum(p, buf, 1)
		if p.Rank() == 1 {
			if got == nil || got[0] != 3 || got[1] != 3 {
				return fmt.Errorf("root got %v", got)
			}
			if buf[0] != 3 {
				return errors.New("root's buf must receive the result")
			}
		} else if got != nil {
			return fmt.Errorf("non-root got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumBadRootPanics(t *testing.T) {
	w := newTestWorld(t, 1, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		p.CommWorld().ReduceSum(p, nil, 5)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want root panic, got %v", err)
	}
}

func TestReduceSumVirtualClock(t *testing.T) {
	w, err := NewWorld(Config{Procs: 2, Mode: VirtualTime, Link: hockney.Link{Alpha: 1, Beta: 0}})
	if err != nil {
		t.Fatal(err)
	}
	var clock float64
	err = w.Run(func(p *Proc) error {
		p.CommWorld().ReduceSum(p, []float64{1, 2}, 0)
		if p.Rank() == 0 {
			clock = p.Now()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock <= 0 {
		t.Fatal("reduce must advance virtual clocks")
	}
}

func TestLinkForPointToPoint(t *testing.T) {
	fast := hockney.Link{Alpha: 0.001, Beta: 0}
	slow := hockney.Link{Alpha: 1, Beta: 0}
	linkFor := func(a, b int) hockney.Link {
		if a/2 == b/2 { // same "node"
			return fast
		}
		return slow
	}
	w, err := NewWorld(Config{Procs: 4, Mode: VirtualTime, Link: fast, LinkFor: linkFor})
	if err != nil {
		t.Fatal(err)
	}
	clocks := make([]float64, 4)
	err = w.Run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, 0, []float64{1}) // intra-node: alpha 0.001
		case 1:
			p.Recv(0, 0)
		case 2:
			p.Send(0, 1, nil) // unused pairing to avoid idle ranks
		case 3:
		}
		if p.Rank() == 0 {
			p.Recv(2, 1)
		}
		clocks[p.Rank()] = p.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0's send to 1 cost the intra-node alpha only.
	if clocks[1] > 0.01 {
		t.Fatalf("intra-node transfer too slow: %v", clocks[1])
	}
	// Rank 2→0 crossed nodes: rank 2's clock carries the slow alpha.
	if clocks[2] < 1 {
		t.Fatalf("cross-node send should cost the slow alpha: %v", clocks[2])
	}
}

func TestWorstLinkAmong(t *testing.T) {
	fast := hockney.Link{Alpha: 1e-6, Beta: 1e-10}
	slow := hockney.Link{Alpha: 1e-4, Beta: 1e-8}
	linkFor := func(a, b int) hockney.Link {
		if a == 0 && b == 1 || a == 1 && b == 0 {
			return fast
		}
		return slow
	}
	w, err := NewWorld(Config{Procs: 3, Link: fast, LinkFor: linkFor})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.worstLinkAmong([]int{0, 1}); got != fast {
		t.Fatalf("pair {0,1} worst link: %+v", got)
	}
	if got := w.worstLinkAmong([]int{0, 1, 2}); got != slow {
		t.Fatalf("triple worst link: %+v", got)
	}
	if got := w.worstLinkAmong([]int{0}); got != fast {
		t.Fatal("singleton falls back to the world link")
	}
	// Without LinkFor, the configured link is used.
	w2, _ := NewWorld(Config{Procs: 3, Link: slow})
	if got := w2.worstLinkAmong([]int{0, 1, 2}); got != slow {
		t.Fatal("no LinkFor must return the world link")
	}
}

func TestAbortUnblocksCollective(t *testing.T) {
	// Rank 1 exits with an error while the others enter a Bcast it will
	// never join. Without the abort machinery this deadlocks; with it the
	// blocked ranks get a typed *PeerFailedError naming rank 1.
	w := newTestWorld(t, 3, RealTime, nil)
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

func TestAbortUnblocksRecv(t *testing.T) {
	// A Recv blocked on a rank that already failed must panic with the
	// typed error (recovered by Run), not hang.
	w := newTestWorld(t, 2, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			return errors.New("gone before sending")
		}
		p.Recv(1, 7)
		return nil
	})
	var pf *PeerFailedError
	if !errors.As(err, &pf) {
		t.Fatalf("want a *PeerFailedError in %v", err)
	}
	if pf.Rank != 1 || pf.Op != "recv" {
		t.Fatalf("got PeerFailedError{Rank:%d, Op:%q}, want rank 1 during recv", pf.Rank, pf.Op)
	}
}

func TestAbortErrorStringNamesRankAndOp(t *testing.T) {
	e := &PeerFailedError{Rank: 3, Op: "barrier", Err: errors.New("x")}
	if got := e.Error(); !strings.Contains(got, "rank 3") || !strings.Contains(got, "barrier") {
		t.Fatalf("unhelpful error string %q", got)
	}
}

func TestBcastLengthMismatchPanics(t *testing.T) {
	w := newTestWorld(t, 2, RealTime, nil)
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
	world := newTestWorld(t, 3, RealTime, nil)
	err := world.Run(func(p *Proc) error {
		dst := matrix.New(h+1, dstStride)
		dst.Fill(-1)
		sv := matrix.Dense{Rows: h, Cols: w, Stride: srcStride, Data: src.Data[1*srcStride+2:]}
		dv := matrix.Dense{Rows: h, Cols: w, Stride: dstStride, Data: dst.Data[1:]}
		if p.Rank() != 1 {
			sv = matrix.Dense{} // read on the root only
		}
		p.CommWorld().BcastPanel(p, sv, dv, 1)
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

// TestBcastPanelDimensionsOnly: panels without data move nothing and are
// charged and traced as a bcast of 8·rows·cols bytes.
func TestBcastPanelDimensionsOnly(t *testing.T) {
	tl := trace.New()
	w, err := NewWorld(Config{Procs: 2, Mode: VirtualTime, Link: hockney.Link{Alpha: 1, Beta: 0.5}, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(p *Proc) error {
		dims := matrix.Dense{Rows: 3, Cols: 4}
		p.CommWorld().BcastPanel(p, dims, dims, 0)
		if want := 1 + 0.5*96; math.Abs(p.Now()-want) > 1e-12 {
			return fmt.Errorf("rank %d clock %v, want %v", p.Rank(), p.Now(), want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range tl.Events() {
		if e.Kind == trace.Comm && (e.Label != "bcast@[0 1]" || e.Bytes != 96) {
			t.Fatalf("event %+v, want a 96-byte bcast@[0 1]", e)
		}
	}
}

func TestBcastPanelMismatchPanics(t *testing.T) {
	w := newTestWorld(t, 2, RealTime, nil)
	err := w.Run(func(p *Proc) error {
		rows := 2 + p.Rank() // rank 1 expects a taller panel than the root sends
		m := matrix.New(rows, 3)
		p.CommWorld().BcastPanel(p, *m, *matrix.New(rows, 3), 0)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "BcastPanel length mismatch") {
		t.Fatalf("want a length-mismatch panic, got %v", err)
	}
}

// TestCollectivesAllocateNothingPerCall pins the per-collective garbage at
// zero: the trace label and the worst link are per-Comm, and the
// coordinator's gather scratch is reused.
func TestCollectivesAllocateNothingPerCall(t *testing.T) {
	w := newTestWorld(t, 1, RealTime, nil)
	if err := w.Run(func(p *Proc) error {
		ranks := []int{0}
		c := p.Split(ranks)
		allocs := testing.AllocsPerRun(100, func() {
			p.Split(ranks)
			c.Barrier(p)
			c.BcastPanel(p, matrix.Dense{Rows: 1, Cols: 1}, matrix.Dense{Rows: 1, Cols: 1}, 0)
		})
		if allocs != 0 {
			return fmt.Errorf("%v allocations per Split+Barrier+BcastPanel, want 0", allocs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
