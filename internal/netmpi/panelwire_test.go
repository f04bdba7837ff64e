package netmpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/blas"
	"repro/internal/faultinject"
	"repro/internal/matrix"
)

// stripsOf returns a Dest over fresh NaN-filled storage for an h×w panel
// packed as rows (WA's form) or columns (WB's), and the storage.
func stripsOf(h, w int, rows bool) (matrix.Dest, []float64) {
	lanes, steps := h, w
	if !rows {
		lanes, steps = w, h
	}
	stride := blas.StripWidth * (steps + 1) // strips that do not touch
	data := filled(blas.Strips(lanes)*stride, math.NaN())
	if rows {
		return matrix.IntoRowStrips(data, stride, h, w), data
	}
	return matrix.IntoColStrips(data, stride, h, w), data
}

// requireSameBits fails unless got and want hold the same bits.
func requireSameBits(what string, got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// TestPanelFringeLanesOverTCP: at N = 100 and N = 127 the band heights and
// widths of the four paper shapes are not all multiples of the strip width,
// so panels travel with fringe lanes; every product over TCP is still
// bit-identical to a one-rank DGEMM.
func TestPanelFringeLanesOverTCP(t *testing.T) {
	eps := localWorld(t, 3)
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{100, 127} {
		a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
		fringes := 0
		for _, l := range benchLayouts(t, n) {
			for _, e := range append(slices.Clone(l.RowHeights), l.ColWidths...) {
				if e%blas.StripWidth != 0 {
					fringes++
				}
			}
			requireDgemm(t, fmt.Sprintf("n=%d owners %v", n, l.Owner), a, b, runOverMesh(t, eps, l, a, b))
		}
		if fringes == 0 {
			t.Fatalf("n=%d: every band is whole strips, so no fringe was exercised", n)
		}
	}
}

// TestBcastPanelParkedIntoStrips: the root sends the stage's second panel
// before its first, so the receiver, awaiting the first, parks the second's
// frame; when it then awaits the second, the parked payload is copied into its strips, fringe
// lanes and padding zeros included, exactly as a frame read off the socket
// into them would be.
func TestBcastPanelParkedIntoStrips(t *testing.T) {
	const h, w = 11, 5 // a 3-lane fringe
	eps := localWorld(t, 2)
	world := []int{0, 1}
	rng := rand.New(rand.NewSource(31))
	panels := []*matrix.Dense{matrix.Random(h, w, rng), matrix.Random(h, w, rng)}
	for _, rows := range []bool{true, false} {
		want := make([][]float64, 2)
		for s, p := range panels {
			dst, data := stripsOf(h, w, rows)
			if err := dst.Put(p); err != nil {
				t.Fatal(err)
			}
			want[s] = data
		}
		runAll(t, eps, func(ep *Endpoint) error {
			first := ep.BeginStage(2)
			order := []int{0, 1}
			if ep.Rank() == 0 {
				order = []int{1, 0}
			}
			for _, slot := range order {
				dst, data := stripsOf(h, w, rows)
				if err := ep.BcastPanel(*panels[slot], dst, world, 0, first+slot); err != nil {
					return err
				}
				if ep.Rank() == 1 && slot == 0 {
					if n := len(ep.conns[0].pending); n != 1 {
						return fmt.Errorf("rows %v: %d keys parked while slot 0 was awaited, want slot 1's", rows, n)
					}
				}
				if err := requireSameBits(fmt.Sprintf("rows %v, rank %d, slot %d", rows, ep.Rank(), slot), data, want[slot]); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// TestCorruptPanelIntoStrips: a panel whose payload is corrupted on the
// wire, read straight into the receiver's strips (vectored, where the
// platform has it), fails the receiver with a *PeerFailedError whose cause
// is the *CorruptFrameError.
func TestCorruptPanelIntoStrips(t *testing.T) {
	const h, w = 19, 40 // over writevMinPayload, with a fringe
	co := &corruptor{from: 1, count: 1}
	eps := worldWith(t, []Config{{OpTimeout: 4 * time.Second, WrapConn: co.wrap}, {OpTimeout: 4 * time.Second}})
	_, vectored := eps[1].conns[0].rd.(vectorReader)
	if vectored != readsVectored {
		t.Fatalf("rank 1's bare connection reads vectored: %v, want %v", vectored, readsVectored)
	}
	errs := runAllErrs(t, eps, testBudget(t, 10*time.Second), func(ep *Endpoint) error {
		dst, _ := stripsOf(h, w, true)
		return ep.BcastPanel(*matrix.New(h, w), dst, []int{0, 1}, 0, ep.BeginStage(1))
	})
	var pf *PeerFailedError
	var cfe *CorruptFrameError
	if !errors.As(errs[1], &pf) || pf.Rank != 0 || !errors.As(errs[1], &cfe) {
		t.Fatalf("receiver got %v, want a PeerFailedError caused by a CorruptFrameError", errs[1])
	}
}

// TestWrappedConnReadsSegmentByDigest: a mesh whose connections a fault
// injector wraps (with a rule that never fires) reads every payload segment with its
// own io.ReadFull, a bare mesh vectored where the platform has it, and the
// two give the same product, bit for bit.
func TestWrappedConnReadsSegmentByDigest(t *testing.T) {
	const n = 127
	inj := faultinject.New(faultinject.Plan{ // wraps every connection, fires on none
		Rules:     []faultinject.Rule{{Rank: -1, Peer: -1, AfterFrames: math.MaxInt32, Action: faultinject.Close}},
		SkipCount: IsHeartbeatFrame,
	})
	wrapped := faultWorld(t, 3, func(rank int, cfg *Config) { cfg.WrapConn = inj.WrapConn(rank) })
	bare := localWorld(t, 3)
	for _, m := range []struct {
		eps      []*Endpoint
		vectored bool
	}{{wrapped, false}, {bare, readsVectored}} {
		for _, ep := range m.eps {
			for _, rc := range ep.conns {
				if rc == nil {
					continue
				}
				if _, ok := rc.rd.(vectorReader); ok != m.vectored {
					t.Fatalf("rank %d's connection to %d reads vectored: %v, want %v", ep.rank, rc.peer, ok, m.vectored)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(37))
	a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	for _, l := range benchLayouts(t, n)[:2] {
		viaWrapped, viaBare := runOverMesh(t, wrapped, l, a, b), runOverMesh(t, bare, l, a, b)
		if dw, db := matrix.Digest(viaWrapped), matrix.Digest(viaBare); dw != db {
			t.Fatalf("owners %v: digest %s over wrapped connections, %s over bare ones", l.Owner, dw, db)
		}
	}
}

// filled returns n copies of v.
func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
