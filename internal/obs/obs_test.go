package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndAttrs(t *testing.T) {
	r := NewRecorder()
	root := r.Root("job").Str("id", "j-1").Int("n", 64)
	child := root.Child("plan").Float("ratio", 1.25)
	grand := child.Child("dgemm").OnRank(2)
	grand.End()
	child.End()
	root.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "job" || spans[0].Parent != -1 {
		t.Errorf("root = %+v, want name=job parent=-1", spans[0])
	}
	if spans[1].Name != "plan" || spans[1].Parent != 0 {
		t.Errorf("child = %+v, want name=plan parent=0", spans[1])
	}
	if spans[2].Name != "dgemm" || spans[2].Parent != 1 || spans[2].Rank != 2 {
		t.Errorf("grandchild = %+v, want name=dgemm parent=1 rank=2", spans[2])
	}
	if spans[0].Rank != -1 || spans[1].Rank != -1 {
		t.Errorf("service spans must have rank -1, got %d and %d", spans[0].Rank, spans[1].Rank)
	}

	wantAttrs := map[string]any{"id": "j-1", "n": int64(64)}
	got := map[string]any{}
	for _, a := range spans[0].Attrs {
		got[a.Key] = a.Value()
	}
	for k, v := range wantAttrs {
		if got[k] != v {
			t.Errorf("root attr %q = %v, want %v", k, got[k], v)
		}
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0].Value() != 1.25 {
		t.Errorf("plan attrs = %+v, want one ratio=1.25", spans[1].Attrs)
	}

	for i, s := range spans {
		if s.End.IsZero() {
			t.Errorf("span %d still open after End", i)
		}
		if s.End.Before(s.Start) {
			t.Errorf("span %d ends before it starts", i)
		}
		if s.Duration() < 0 {
			t.Errorf("span %d negative duration", i)
		}
	}
}

func TestEndIdempotent(t *testing.T) {
	r := NewRecorder()
	h := r.Root("x")
	h.End()
	first := r.Spans()[0].End
	time.Sleep(time.Millisecond)
	h.End()
	if got := r.Spans()[0].End; !got.Equal(first) {
		t.Errorf("second End moved the end time: %v -> %v", first, got)
	}
}

func TestOpenSpanDuration(t *testing.T) {
	r := NewRecorder()
	r.Root("open")
	if d := r.Spans()[0].Duration(); d != 0 {
		t.Errorf("open span duration = %v, want 0", d)
	}
}

func TestDisabledHandleIsSafeAndFree(t *testing.T) {
	var h SpanHandle // zero value: disabled
	if h.r != nil {
		t.Fatal("zero handle reports enabled")
	}
	// Every operation must no-op without panicking.
	h2 := h.Child("x").OnRank(1).Int("a", 1).Float("b", 2).Str("c", "d")
	h2.End()
	if h2.r != nil {
		t.Fatal("child of disabled handle reports enabled")
	}

	var nilRec *Recorder
	if nilRec.Len() != 0 || nilRec.Spans() != nil {
		t.Fatal("nil recorder not empty")
	}
	if got := nilRec.Root("x"); got.r != nil {
		t.Fatal("nil recorder returned an enabled handle")
	}
	if !nilRec.T0().IsZero() {
		t.Fatal("nil recorder T0 not zero")
	}

	allocs := testing.AllocsPerRun(100, func() {
		sp := h.Child("stage").OnRank(3)
		sp.Int("i", 42).Float("f", 3.14).Str("s", "v")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled handle allocated %v times per op chain, want 0", allocs)
	}
}

func TestConcurrentSpans(t *testing.T) {
	r := NewRecorder()
	root := r.Root("job")
	var wg sync.WaitGroup
	const ranks, perRank = 8, 25
	for rank := 0; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				sp := root.Child(fmt.Sprintf("cell-%d-%d", rank, i)).OnRank(rank)
				sp.Int("i", int64(i)).End()
			}
		}(rank)
	}
	wg.Wait()
	root.End()
	if got := r.Len(); got != 1+ranks*perRank {
		t.Fatalf("recorded %d spans, want %d", got, 1+ranks*perRank)
	}
	for i, s := range r.Spans() {
		if i == 0 {
			continue
		}
		if s.Parent != 0 {
			t.Fatalf("span %d parent = %d, want 0", i, s.Parent)
		}
	}
}

func TestSpansReturnsDeepCopy(t *testing.T) {
	r := NewRecorder()
	h := r.Root("x").Int("a", 1)
	snap := r.Spans()
	snap[0].Attrs[0].Int = 999
	snap[0].Name = "mutated"
	h.Int("b", 2)
	fresh := r.Spans()
	if fresh[0].Name != "x" || fresh[0].Attrs[0].Int != 1 {
		t.Errorf("snapshot mutation leaked into recorder: %+v", fresh[0])
	}
	if len(fresh[0].Attrs) != 2 {
		t.Errorf("attr append after snapshot lost: %+v", fresh[0].Attrs)
	}
}

// TestAddChildrenBatch: a batch keeps its order and tree: a span with
// Parent -1 hangs off the handle, any other off the batch span it names, and
// a disabled handle records nothing.
func TestAddChildrenBatch(t *testing.T) {
	rec := NewRecorder()
	root := rec.Root("job")
	att := root.Child("attempt")
	at := time.Now()
	att.AddChildren([]Span{
		{Name: "dgemm", Rank: 1, Parent: -1, Start: at, End: at.Add(time.Millisecond)},
		{Name: "dgemm[0:1,0:1]", Rank: 1, Parent: 0, Start: at, End: at.Add(time.Microsecond)},
	})
	SpanHandle{}.AddChildren([]Span{{Name: "lost", Parent: -1}})
	spans := rec.Spans()
	if len(spans) != 4 || spans[2].Name != "dgemm" || spans[3].Name != "dgemm[0:1,0:1]" {
		t.Fatalf("spans %+v, want job, attempt, then the batch in order", spans)
	}
	if spans[2].Parent != 1 || spans[3].Parent != 2 || spans[3].Rank != 1 {
		t.Errorf("batch parents %d and %d, rank %d: want attempt (1), the batch's dgemm (2), rank 1", spans[2].Parent, spans[3].Parent, spans[3].Rank)
	}
}
