// The engine times each op of its compiled schedule and writes the
// multiply's Timeline itself. The tests below check that record through
// core.Multiply.
package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
	"repro/internal/trace"
)

// halves is an N = 8 layout of two ranks side by side: grid row 0 is the
// band {0,1}, with one 8×4 panel of A per rank, and each grid column has a
// single owner, so B is copied locally.
func halves() *partition.Layout {
	return &partition.Layout{N: 8, P: 2, GridRows: 1, GridCols: 2,
		RowHeights: []int{8}, ColWidths: []int{4, 4}, Owner: []int{0, 1}}
}

func multiply(t *testing.T, l *partition.Layout) *trace.Timeline {
	t.Helper()
	a, b, c := matrix.New(l.N, l.N), matrix.New(l.N, l.N), matrix.New(l.N, l.N)
	matrix.FillSeeded(1, a, b)
	rep, err := core.Multiply(a, b, c, core.Config{Layout: l})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Timeline
}

// TestRealTimeEventsRecorded: an in-process multiply records its
// communicator creation, broadcasts and DGEMMs on the wall clock.
func TestRealTimeEventsRecorded(t *testing.T) {
	tl := multiply(t, halves())
	if tl.Len() < 3 {
		t.Fatalf("expected split+bcast+compute events, got %d", tl.Len())
	}
	kinds := map[trace.Kind]int{}
	for _, e := range tl.Events() {
		if e.Start < 0 || e.End < e.Start {
			t.Errorf("event %+v does not lie on the run's clock", e)
		}
		kinds[e.Kind]++
	}
	if kinds[trace.Comm] == 0 || kinds[trace.Compute] == 0 {
		t.Fatalf("events by kind %v, want comm and compute", kinds)
	}
}

// TestBcastPanelDimensionsOnly: a panel broadcast is recorded by its
// dimensions alone — 8·rows·cols bytes on every member, the root and the
// receivers alike, under the band's "bcast" label.
func TestBcastPanelDimensionsOnly(t *testing.T) {
	seen := map[int]int{}
	for _, e := range multiply(t, halves()).Events() {
		if e.Kind != trace.Comm || e.Label == "split@[0 1]" && e.Bytes == 0 {
			continue
		}
		if e.Label != "bcast@[0 1]" || e.Bytes != 8*8*4 {
			t.Fatalf("event %+v, want a 256-byte bcast@[0 1]", e)
		}
		seen[e.Rank]++
	}
	if seen[0] != 2 || seen[1] != 2 {
		t.Fatalf("bcast events per rank: %v, want two on each of 0 and 1", seen)
	}
}
