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
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// localWorld binds one loopback listener per rank and dials the mesh from
// p goroutines, returning the connected endpoints.
func localWorld(t *testing.T, p int) []*Endpoint {
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
			eps[rank], errs[rank] = Dial(Config{Rank: rank, Addrs: addrs, Listener: listeners[rank]})
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

// runAll executes fn on every endpoint concurrently and fails on any error.
func runAll(t *testing.T, eps []*Endpoint, fn func(*Endpoint) error) {
	t.Helper()
	errs := make([]error, len(eps))
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
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(Config{Rank: 0, Addrs: nil}); err == nil {
		t.Fatal("no addresses must fail")
	}
	if _, err := Dial(Config{Rank: 5, Addrs: []string{"a", "b"}}); err == nil {
		t.Fatal("rank out of range must fail")
	}
}

func TestSingleRankWorld(t *testing.T) {
	ep, err := Dial(Config{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if ep.Size() != 1 || ep.Rank() != 0 {
		t.Fatal("bad single world")
	}
	c := ep.Split([]int{0})
	got, err := c.Bcast([]float64{42}, 1, 0)
	if err != nil || got[0] != 42 {
		t.Fatalf("self broadcast: %v %v", got, err)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestHealthy: an endpoint stays healthy across collectives, and stops being
// so once a peer is declared failed or the endpoint is closed — the test an
// owner runs before keeping a mesh for its next run.
func TestHealthy(t *testing.T) {
	eps := localWorld(t, 3)
	runAll(t, eps, func(ep *Endpoint) error { return ep.AgreeEpoch() })
	for r, ep := range eps {
		if !ep.Healthy() {
			t.Fatalf("rank %d unhealthy after a clean collective", r)
		}
	}
	eps[0].FailPeer(2, errors.New("condemned"))
	if eps[0].Healthy() {
		t.Fatal("rank 0 healthy with a failed peer")
	}
	if !eps[1].Healthy() {
		t.Fatal("rank 1 lost health without any failure of its own")
	}
	eps[1].Close()
	if eps[1].Healthy() {
		t.Fatal("closed endpoint reports healthy")
	}
}

func TestMeshSendRecv(t *testing.T) {
	eps := localWorld(t, 3)
	runAll(t, eps, func(ep *Endpoint) error {
		// Ring: send own rank to (rank+1)%3, receive from (rank+2)%3.
		next := (ep.Rank() + 1) % 3
		prev := (ep.Rank() + 2) % 3
		if err := ep.send(next, 1, 7, []float64{float64(ep.Rank())}, "test"); err != nil {
			return err
		}
		got, _, err := ep.recv(prev, 1, 7, nil, "test")
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != float64(prev) {
			return fmt.Errorf("got %v from %d", got, prev)
		}
		return nil
	})
}

func TestRecvTagReordering(t *testing.T) {
	eps := localWorld(t, 2)
	runAll(t, eps, func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			// Send tags out of the receiver's consumption order.
			if err := ep.send(1, 9, 2, []float64{2}, "test"); err != nil {
				return err
			}
			if err := ep.send(1, 9, 1, []float64{1}, "test"); err != nil {
				return err
			}
			return nil
		}
		first, _, err := ep.recv(0, 9, 1, nil, "test")
		if err != nil {
			return err
		}
		second, _, err := ep.recv(0, 9, 2, nil, "test")
		if err != nil {
			return err
		}
		if first[0] != 1 || second[0] != 2 {
			return fmt.Errorf("tag matching broken: %v %v", first, second)
		}
		return nil
	})
}

func TestBcastAllRootsAndSizes(t *testing.T) {
	for _, p := range []int{2, 3, 5, 8} {
		eps := localWorld(t, p)
		for root := 0; root < p; root++ {
			runAll(t, eps, func(ep *Endpoint) error {
				all := make([]int, p)
				for i := range all {
					all[i] = i
				}
				c := ep.Split(all)
				buf := make([]float64, 4)
				if ep.Rank() == root {
					for i := range buf {
						buf[i] = float64(root*10 + i)
					}
				}
				got, err := c.Bcast(buf, 4, root)
				if err != nil {
					return err
				}
				for i := range got {
					if got[i] != float64(root*10+i) {
						return fmt.Errorf("p=%d root=%d rank=%d got %v", p, root, ep.Rank(), got)
					}
				}
				return nil
			})
		}
	}
}

// TestBcastSubCommunicator: two broadcasts of one stage over disjoint
// member lists of a four-rank world, {0, 2} from rank 0 and {1, 3} from
// rank 1, each under its own key of the stage, reach exactly their members.
func TestBcastSubCommunicator(t *testing.T) {
	eps := localWorld(t, 4)
	runAll(t, eps, func(ep *Endpoint) error {
		first := ep.BeginStage(2)
		group, key := []int{0, 2}, first
		if ep.Rank()%2 == 1 {
			group, key = []int{1, 3}, first+1
		}
		buf := matrix.New(1, 1)
		src := matrix.New(1, 1)
		if group[0] == ep.Rank() {
			src.Data[0] = float64(100 + ep.Rank())
		}
		if err := ep.BcastPanel(*src, matrix.Into(*buf), group, 0, key); err != nil {
			return err
		}
		want := 100.0
		if ep.Rank()%2 == 1 {
			want = 101
		}
		if got := buf.Data[0]; got != want {
			return fmt.Errorf("rank %d got %v want %v", ep.Rank(), got, want)
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	eps := localWorld(t, 4)
	var counter int64
	var mu sync.Mutex
	runAll(t, eps, func(ep *Endpoint) error {
		all := []int{0, 1, 2, 3}
		c := ep.Split(all)
		for i := 0; i < 5; i++ {
			mu.Lock()
			counter++
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			// After each barrier, every rank must have incremented.
			if counter < int64((i+1)*4) {
				mu.Unlock()
				return fmt.Errorf("barrier %d leaked: counter=%d", i, counter)
			}
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestSplitMisuse: Split returns the world communicator, the endpoint
// itself, and refuses a proper subset of the world, with this rank or
// without it.
func TestSplitMisuse(t *testing.T) {
	eps := localWorld(t, 3)
	if c := eps[0].Split([]int{2, 0, 1}); c != eps[0] {
		t.Fatal("Split of the whole world is not the endpoint")
	}
	for _, ranks := range [][]int{{0}, {1}, {0, 2}, {0, 1, 1}, {0, 1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%v) of a 3-rank world did not panic", ranks)
				}
			}()
			eps[0].Split(ranks)
		}()
	}
}

func TestSummaGenOverTCP(t *testing.T) {
	// The paper's future-work scenario: the unmodified SummaGen engine
	// over real sockets, each rank a separate endpoint, full verification.
	n := 32
	rng := rand.New(rand.NewSource(4))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	want := matrix.New(n, n)
	if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
		t.Fatal(err)
	}
	areas, err := balance.Proportional(n*n, []float64{1, 2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range partition.Shapes {
		layout, err := partition.Build(shape, n, areas)
		if err != nil {
			t.Fatal(err)
		}
		eps := localWorld(t, 3)
		// Each rank gets its own copies (separate address spaces in a
		// real deployment) and its own output C.
		cs := make([]*matrix.Dense, 3)
		runAll(t, eps, func(ep *Endpoint) error {
			ar, br := a.Clone(), b.Clone()
			c := matrix.New(n, n)
			cs[ep.Rank()] = c
			return core.RunRank(ep.Proc(), core.Config{Layout: layout}, ar, br, c)
		})
		// Assemble: each rank owns its cells of C.
		got := matrix.New(n, n)
		for i := 0; i < layout.GridRows; i++ {
			for j := 0; j < layout.GridCols; j++ {
				owner := layout.OwnerAt(i, j)
				h, w := layout.RowHeights[i], layout.ColWidths[j]
				src := cs[owner].MustView(layout.RowStart(i), layout.ColStart(j), h, w)
				dst := got.MustView(layout.RowStart(i), layout.ColStart(j), h, w)
				if err := matrix.CopyBlock(dst, src, h, w); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !matrix.EqualApprox(got, want, 1e-10) {
			t.Fatalf("%v over TCP: result mismatch (max diff %g)", shape, matrix.MaxAbsDiff(got, want))
		}
		// Breakdown sanity.
		comp, comm, bytes := eps[0].Breakdown()
		if comp <= 0 {
			t.Fatalf("%v: no compute time recorded", shape)
		}
		_ = comm
		if bytes <= 0 {
			t.Fatalf("%v: no bytes moved", shape)
		}
	}
}

func TestEndpointBreakdownAccumulates(t *testing.T) {
	ep, err := Dial(Config{Rank: 0, Addrs: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Compute(1.5, 10, "x")
	ep.Compute(0.5, 10, "y")
	comp, _, _ := ep.Breakdown()
	if comp != 2 {
		t.Fatalf("compute = %v", comp)
	}

	// The bytes Breakdown reports are the peers' data bytes, the same count
	// Stats reads: heartbeats and span frames count in neither.
	eps := faultWorld(t, 2, func(rank int, cfg *Config) {
		cfg.HeartbeatInterval = 5 * time.Millisecond
		cfg.OpTimeout = 10 * time.Second
	})
	payload := []float64{1, 2, 3}
	runAll(t, eps, func(ep *Endpoint) error {
		if ep.Rank() == 1 {
			time.Sleep(40 * time.Millisecond) // let heartbeats land first
			if err := ep.Send(0, 7, payload); err != nil {
				return err
			}
			return ep.SendSpanBlob(0, make([]byte, 100))
		}
		if _, err := ep.Recv(1, 7); err != nil {
			return err
		}
		_, err := ep.RecvSpanBlob(1)
		return err
	})
	st := eps[0].Stats()
	if ps := st.Peers[0]; ps.Heartbeats == 0 || ps.SpanBytesRecv == 0 {
		t.Fatalf("rank 0 saw %d heartbeats and %d span bytes, want both", ps.Heartbeats, ps.SpanBytesRecv)
	}
	for r, ep := range eps {
		_, _, bytes := ep.Breakdown()
		want := int64(0)
		if r == 0 {
			want = int64(8 * len(payload))
		}
		if total := ep.Stats().TotalRecvBytes(); bytes != total || bytes != want {
			t.Errorf("rank %d: Breakdown bytes %d, Stats().TotalRecvBytes() %d, want both %d", r, bytes, total, want)
		}
	}
}

func TestPublicSendRecv(t *testing.T) {
	eps := localWorld(t, 2)
	runAll(t, eps, func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			if err := ep.Send(1, 42, []float64{3.5}); err != nil {
				return err
			}
			got, err := ep.Recv(1, 43)
			if err != nil {
				return err
			}
			if got[0] != 4.5 {
				return fmt.Errorf("got %v", got)
			}
		} else {
			got, err := ep.Recv(0, 42)
			if err != nil {
				return err
			}
			if got[0] != 3.5 {
				return fmt.Errorf("got %v", got)
			}
			if err := ep.Send(0, 43, []float64{4.5}); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestDistributedCannonOverTCP runs a Cannon-style shift loop over the
// public Send/Recv API — the point-to-point pattern SummaGen does not
// exercise — and verifies the product.
func TestDistributedCannonOverTCP(t *testing.T) {
	const q = 2
	const n = 16
	const bs = n / q
	rng := rand.New(rand.NewSource(6))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	want := matrix.New(n, n)
	if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
		t.Fatal(err)
	}
	eps := localWorld(t, q*q)
	results := make([][]float64, q*q)
	runAll(t, eps, func(ep *Endpoint) error {
		myRow, myCol := ep.Rank()/q, ep.Rank()%q
		rankOf := func(i, j int) int { return ((i+q)%q)*q + (j+q)%q }
		aj := (myCol + myRow) % q
		bi := (myRow + myCol) % q
		aBlock := matrix.PackBlock(nil, a.MustView(myRow*bs, aj*bs, bs, bs), bs, bs)
		bBlock := matrix.PackBlock(nil, b.MustView(bi*bs, myCol*bs, bs, bs), bs, bs)
		cBlock := make([]float64, bs*bs)
		for step := 0; step < q; step++ {
			if err := blas.Dgemm(bs, bs, bs, 1, aBlock, bs, bBlock, bs, 1, cBlock, bs); err != nil {
				return err
			}
			if step == q-1 {
				break
			}
			if err := ep.Send(rankOf(myRow, myCol-1), 100+2*step, aBlock); err != nil {
				return err
			}
			if err := ep.Send(rankOf(myRow-1, myCol), 100+2*step+1, bBlock); err != nil {
				return err
			}
			var err error
			aBlock, err = ep.Recv(rankOf(myRow, myCol+1), 100+2*step)
			if err != nil {
				return err
			}
			bBlock, err = ep.Recv(rankOf(myRow+1, myCol), 100+2*step+1)
			if err != nil {
				return err
			}
		}
		results[ep.Rank()] = cBlock
		return nil
	})
	got := matrix.New(n, n)
	for r := 0; r < q*q; r++ {
		dst := got.MustView((r/q)*bs, (r%q)*bs, bs, bs)
		if err := matrix.UnpackBlock(dst, results[r], bs, bs); err != nil {
			t.Fatal(err)
		}
	}
	if !matrix.EqualApprox(got, want, 1e-10) {
		t.Fatal("distributed Cannon over TCP mismatch")
	}
}

func TestPeerFailureSurfacesAsError(t *testing.T) {
	// A rank whose peer disappears mid-protocol must get a descriptive
	// error, not hang: rank 1 closes its endpoint instead of sending.
	eps := localWorld(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv(1, 77)
		done <- err
	}()
	eps[1].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("receive from a dead peer must fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receive from a dead peer hung")
	}
}

func TestSendToDeadPeerFails(t *testing.T) {
	eps := localWorld(t, 2)
	eps[1].Close()
	// TCP buffering may absorb the first write; repeated sends must fail.
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = eps[0].Send(1, 5, make([]float64, 4096))
	}
	if err == nil {
		t.Fatal("sending to a dead peer must eventually fail")
	}
}
