package netmpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// TestReadFrameIntoCallerBuffer pins the receive-into contract at the frame
// reader: the awaited frame is decoded in the caller's own segments, in
// order, with no allocation at all; anything else — another key, another
// length — comes back as a slice the reader allocated, and the caller's
// segments are left alone.
func TestReadFrameIntoCallerBuffer(t *testing.T) {
	payload := []float64{1.5, -2, 3.25, 4, 5.5}
	want := frameKey{comm: 9, tag: 3}
	wire := appendFrame(nil, want.comm, want.tag, payload)
	rd := bytes.NewReader(wire)
	var sc frameScratch
	into := [][]float64{make([]float64, 2), nil, make([]float64, 3)}

	allocs := testing.AllocsPerRun(100, func() {
		rd.Reset(wire)
		key, got, _, err := readFrame(rd, &sc, want, into)
		if err != nil || key != want || got != nil {
			t.Fatalf("awaited frame: key %v err %v, payload returned apart from the caller's segments: %v", key, err, got != nil)
		}
	})
	if allocs != 0 {
		t.Errorf("awaited frame cost %v allocations, want 0", allocs)
	}
	if got := slices.Concat(into...); !slices.Equal(got, payload) {
		t.Fatalf("segments hold %v, want %v", got, payload)
	}

	for name, tc := range map[string]struct {
		want frameKey
		into [][]float64
	}{
		"other key":    {frameKey{comm: 9, tag: 4}, [][]float64{make([]float64, len(payload))}},
		"longer into":  {want, [][]float64{make([]float64, 2), make([]float64, len(payload)-1)}},
		"shorter into": {want, [][]float64{make([]float64, len(payload)-1)}},
	} {
		for _, s := range tc.into {
			for i := range s {
				s[i] = -7
			}
		}
		rd.Reset(wire)
		_, got, _, err := readFrame(rd, &sc, tc.want, tc.into)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, payload) {
			t.Errorf("%s: payload must come back in an owned slice, got %v", name, got)
		}
		for _, s := range tc.into {
			for i, v := range s {
				if v != -7 {
					t.Errorf("%s: caller's buffer[%d] overwritten with %v", name, i, v)
				}
			}
		}
	}
}

// TestRecvIntoAwaitedAndParked drives the same contract through an
// endpoint: a frame that arrives while awaited lands in the caller's
// segments; one that arrived early is parked, then copied into them, and
// its CRC with it; and after a burst of out-of-order deliveries nothing
// stays parked — neither the payloads nor their keys.
func TestRecvIntoAwaitedAndParked(t *testing.T) {
	const burst = 64
	eps := localWorld(t, 2)
	runAll(t, eps, func(ep *Endpoint) error {
		if ep.Rank() == 0 {
			// Tags go out in descending order, the receiver awaits them
			// ascending: every frame but the last arrives early.
			for tag := burst; tag >= 1; tag-- {
				if err := ep.send(1, 9, uint32(tag), []float64{float64(tag), 0.5, float64(-tag)}, "test"); err != nil {
					return err
				}
			}
			return nil
		}
		parked := 0
		for tag := 1; tag <= burst; tag++ {
			head, tail := []float64{0}, []float64{0, 0}
			got, sum, err := ep.recv(0, 9, uint32(tag), [][]float64{head, tail}, "test")
			if err != nil {
				return err
			}
			want := []float64{float64(tag), 0.5, float64(-tag)}
			if got != nil || head[0] != want[0] || tail[0] != want[1] || tail[1] != want[2] {
				return fmt.Errorf("tag %d: segments hold %v %v, payload returned apart: %v", tag, head, tail, got)
			}
			wire := appendFrame(nil, 9, uint32(tag), want)
			if trailer := binary.LittleEndian.Uint32(wire[len(wire)-crcTrailerBytes:]); sum != trailer {
				return fmt.Errorf("tag %d: recv reports CRC %#x, the frame carries %#x", tag, sum, trailer)
			}
			if tag == 1 {
				parked = len(ep.conns[0].pending)
			}
		}
		if parked != burst-1 {
			return fmt.Errorf("%d frames parked after the first receive, want %d", parked, burst-1)
		}
		if n := len(ep.conns[0].pending); n != 0 {
			return fmt.Errorf("%d keys still parked after every frame was delivered", n)
		}
		return nil
	})
}

// TestBcastLengthMismatch: a receiver whose buffer is not the root's length
// gets a typed error from both broadcast entry points, whatever form the
// panel's destination has, never a partial copy.
func TestBcastLengthMismatch(t *testing.T) {
	eps := localWorld(t, 2)
	world := []int{0, 1}
	check := func(name string, op func(ep *Endpoint, n int) error) {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for r, ep := range eps {
			wg.Add(1)
			go func(r int, ep *Endpoint) {
				defer wg.Done()
				errs[r] = op(ep, 4+2*r) // rank 1 expects 6, the root sends 4
			}(r, ep)
		}
		wg.Wait()
		if errs[0] != nil {
			t.Errorf("%s: root failed: %v", name, errs[0])
		}
		var lm *LengthMismatchError
		if !errors.As(errs[1], &lm) || lm.Want != 6 || lm.Got != 4 || lm.Rank != 1 {
			t.Errorf("%s: receiver got %v, want LengthMismatchError{Rank: 1, Want: 6, Got: 4}", name, errs[1])
		}
	}
	check("Bcast", func(ep *Endpoint, n int) error {
		_, err := ep.Bcast(make([]float64, n), n, 0)
		return err
	})
	check("BcastPanel", func(ep *Endpoint, n int) error {
		src := matrix.New(n/2, 2)
		dst := matrix.New(n/2, 3)
		return ep.BcastPanel(*src, matrix.Into(matrix.Dense{Rows: n / 2, Cols: 2, Stride: 3, Data: dst.Data}), world, 0, ep.BeginStage(1))
	})
	check("BcastPanel into strips", func(ep *Endpoint, n int) error {
		dst, _ := stripsOf(n/2, 2, true) // all fringe: the receiver reads its 6 lanes' worth into the fringe buffer
		return ep.BcastPanel(*matrix.New(n/2, 2), dst, world, 0, ep.BeginStage(1))
	})
}

// TestBcastPanelStridedAndContiguous: every member ends up with the root's
// panel in its own view, whether that view's rows are contiguous or strided,
// on the root, on an interior node of the tree and on a leaf.
func TestBcastPanelStridedAndContiguous(t *testing.T) {
	const h, w = 5, 3
	eps := localWorld(t, 4)
	world := []int{0, 1, 2, 3}
	full := matrix.New(h+2, w+4)
	for i := range full.Data {
		full.Data[i] = float64(i) + 0.5
	}
	for root := range eps {
		runAll(t, eps, func(ep *Endpoint) error {
			src := matrix.Dense{Rows: h, Cols: w, Stride: full.Stride, Data: full.Data[1*full.Stride+2:]}
			stride := w
			if ep.Rank()%2 == 1 {
				stride = w + 2
			}
			back := matrix.New(h, stride)
			back.Fill(-1)
			dst := matrix.Dense{Rows: h, Cols: w, Stride: stride, Data: back.Data}
			if err := ep.BcastPanel(src, matrix.Into(dst), world, root, ep.BeginStage(1)); err != nil {
				return err
			}
			for i := 0; i < h; i++ {
				for j := 0; j < stride; j++ {
					want := -1.0
					if j < w {
						want = full.At(1+i, 2+j)
					}
					if got := back.At(i, j); got != want {
						return fmt.Errorf("root %d rank %d (stride %d): dst(%d,%d) = %v, want %v", root, ep.Rank(), stride, i, j, got, want)
					}
				}
			}
			return nil
		})
	}
}
