// The engine times each op of its compiled schedule and writes the
// multiply's Timeline itself. The tests below check that record through
// core.Multiply.
package core_test

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs"
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
// broadcasts and DGEMMs on the wall clock.
func TestRealTimeEventsRecorded(t *testing.T) {
	tl := multiply(t, halves())
	if len(tl.Recorded()) < 3 {
		t.Fatalf("expected bcast+compute events, got %d", len(tl.Recorded()))
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
// receivers alike, under the band's "bcast" label; no other Comm event is
// recorded (a real run creates no communicator).
func TestBcastPanelDimensionsOnly(t *testing.T) {
	seen := map[int]int{}
	for _, e := range multiply(t, halves()).Events() {
		if e.Kind != trace.Comm {
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

// spansByRank returns, per rank, the rank-tagged spans of rec in order.
func spansByRank(rec *obs.Recorder) map[int][]obs.Span {
	out := map[int][]obs.Span{}
	for _, sp := range rec.Spans() {
		if sp.Rank >= 0 {
			out[sp.Rank] = append(out[sp.Rank], sp)
		}
	}
	return out
}

// TestSpansAreViewsOfTheRecord: a traced multiply's spans are made from the
// stamps its ranks took. Per rank the three stages run back to back, each
// boundary one stamp; every DGEMM span starts and ends exactly where its
// Timeline event does, carries its flops and hangs off the rank's dgemm
// stage, with one ckpt-restore span before the DGEMMs and one ckpt-save span
// after each; and the Report's Imbalance is the analysis of those spans.
func TestSpansAreViewsOfTheRecord(t *testing.T) {
	const n = 64
	l := shapeLayout(t, partition.SquareCorner, n, []float64{1.0, 2.0, 0.9})
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	matrix.FillSeeded(2, a, b)
	rec := obs.NewRecorder()
	rep, err := core.Multiply(a, b, c, core.Config{Layout: l, Checkpoint: nopCheckpointer{}, Span: rec.Root("job")})
	if err != nil {
		t.Fatal(err)
	}
	events := map[[2]any]trace.Event{}
	for _, e := range rep.Timeline.Events() {
		events[[2]any{e.Rank, e.Label}] = e
	}
	at := func(sec float64) time.Time { return rep.Timeline.Origin.Add(time.Duration(math.Round(sec * 1e9))) }
	spans, all := spansByRank(rec), rec.Spans()
	for rank := 0; rank < l.P; rank++ {
		sps := spans[rank]
		if len(sps) < 4 || sps[0].Name != "bcastA" || sps[1].Name != "bcastB" || sps[2].Name != "dgemm" {
			t.Fatalf("rank %d spans %v, want bcastA, bcastB, dgemm first", rank, sps)
		}
		if !sps[0].End.Equal(sps[1].Start) || !sps[1].End.Equal(sps[2].Start) {
			t.Errorf("rank %d: stages are not back to back: %v", rank, sps[:3])
		}
		var names []string
		for _, sp := range sps[3:] {
			names = append(names, sp.Name)
			if all[sp.Parent].Name != "dgemm" || all[sp.Parent].Rank != rank {
				t.Errorf("rank %d: %s hangs off %q on rank %d", rank, sp.Name, all[sp.Parent].Name, all[sp.Parent].Rank)
			}
			if !strings.HasPrefix(sp.Name, "dgemm[") {
				continue
			}
			e, ok := events[[2]any{rank, sp.Name}]
			if !ok || !sp.Start.Equal(at(e.Start)) || !sp.End.Equal(at(e.End)) {
				t.Errorf("rank %d: %s at [%v, %v], its Timeline event %+v", rank, sp.Name, sp.Start, sp.End, e)
			}
			if len(sp.Attrs) != 1 || sp.Attrs[0].Key != "flops" || sp.Attrs[0].Float != e.Flops {
				t.Errorf("rank %d: %s attrs %+v, want its flops %g", rank, sp.Name, sp.Attrs, e.Flops)
			}
		}
		for k, name := range names {
			want := [...]string{"ckpt-save", "dgemm["}[k%2]
			if k == 0 {
				want = "ckpt-restore"
			}
			if !strings.HasPrefix(name, want) || len(names) < 3 || len(names)%2 == 0 {
				t.Errorf("rank %d: dgemm stage children %v, want ckpt-restore, then each DGEMM and its ckpt-save", rank, names)
				break
			}
		}
	}
	if want := obs.AnalyzeStageSpans(rec.Spans()); !reflect.DeepEqual(rep.Imbalance, want) {
		t.Errorf("report imbalance %+v, analysis of the recorded spans %+v", rep.Imbalance, want)
	}
}

// TestFailedStageSpan: a rank whose compute stage fails still adds its spans,
// the failed stage tagged with the error, and no DGEMM span.
func TestFailedStageSpan(t *testing.T) {
	const n = 64
	l := shapeLayout(t, partition.SquareCorner, n, []float64{1.0, 2.0, 0.9})
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	rec := obs.NewRecorder()
	var err error
	core.FailComputeStage(func() { _, err = core.Multiply(a, b, c, core.Config{Layout: l, Span: rec.Root("job")}) })
	if err == nil {
		t.Fatal("a failing compute stage returned no error")
	}
	for rank, sps := range spansByRank(rec) {
		if len(sps) != 3 || sps[2].Name != "dgemm" {
			t.Errorf("rank %d spans %v, want the three stages alone", rank, sps)
			continue
		}
		if a := sps[2].Attrs; len(a) != 1 || a[0].Key != "error" || a[0].Str != "core: injected DGEMM failure" {
			t.Errorf("rank %d: failed dgemm stage attrs %+v, want its error", rank, a)
		}
	}
	if got := len(spansByRank(rec)); got != l.P {
		t.Errorf("spans from %d ranks, want %d", got, l.P)
	}
}
