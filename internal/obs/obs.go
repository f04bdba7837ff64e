// Package obs is the service stack's span layer: a lightweight, job-scoped
// span recorder with parent links and typed attributes, no external
// dependencies. One Recorder is created per job at admission; handles to
// its spans thread through the scheduler, the runners and the engine, so a
// single job yields one coherent tree covering admission, queue wait,
// planning, every recovery attempt, and — inside internal/core — the three
// SummaGen stages and per-rectangle DGEMMs.
//
// The disabled path is free: a zero-value SpanHandle (or any handle rooted
// in a nil *Recorder) no-ops on every method without allocating, so the
// engine's hot loops carry instrumentation unconditionally. Attribute
// setters are fixed-arity and typed (no variadic ...any) precisely so the
// disabled calls never box their arguments onto the heap.
package obs

import (
	"sync"
	"time"
)

// AttrKind discriminates the value stored in an Attr.
type AttrKind byte

const (
	// KindInt marks an integer attribute.
	KindInt AttrKind = iota
	// KindFloat marks a float attribute.
	KindFloat
	// KindStr marks a string attribute.
	KindStr
)

// Attr is one typed key/value attribute on a span.
type Attr struct {
	Key   string
	Kind  AttrKind
	Int   int64
	Float float64
	Str   string
}

// Value returns the attribute's value as an any, for serialization.
func (a Attr) Value() any {
	switch a.Kind {
	case KindFloat:
		return a.Float
	case KindStr:
		return a.Str
	default:
		return a.Int
	}
}

// Span is one recorded interval. Times are wall-clock; Parent is the index
// of the parent span in the recorder's slice (-1 for roots), so the tree
// survives snapshotting without pointers.
type Span struct {
	Name string
	// Rank is the engine rank the span ran on, or -1 for service-scoped
	// spans (admission, queue, planning, ...).
	Rank   int
	Parent int
	Start  time.Time
	// End is zero while the span is open.
	End   time.Time
	Attrs []Attr
}

// Duration returns End-Start, or 0 for a still-open span.
func (s Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Recorder collects one job's spans. Safe for concurrent use; the engine's
// rank goroutines all append through it.
type Recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder anchored at the current time.
func NewRecorder() *Recorder {
	return &Recorder{t0: time.Now()}
}

// T0 returns the recorder's time origin (the zero time on a nil recorder).
func (r *Recorder) T0() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.t0
}

// Root starts a new parentless span. Nil-safe: a nil recorder returns the
// zero (disabled) handle.
func (r *Recorder) Root(name string) SpanHandle {
	if r == nil {
		return SpanHandle{}
	}
	return r.start(name, -1)
}

func (r *Recorder) start(name string, parent int) SpanHandle {
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, Span{
		Name:   name,
		Rank:   -1,
		Parent: parent,
		Start:  time.Now(),
	})
	r.mu.Unlock()
	return SpanHandle{r: r, idx: idx}
}

// Len returns the number of spans recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a deep copy of the recorded spans; indices (and therefore
// Parent links) match the recorder's internal order, which is start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	for i := range out {
		out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
	}
	return out
}

// SpanHandle addresses one span in a recorder. The zero value is the
// disabled handle: every method no-ops without allocating. Handles are
// small values, copied freely through Config structs and goroutines.
type SpanHandle struct {
	r   *Recorder
	idx int
}

// Enabled reports whether the handle records anywhere.
func (h SpanHandle) Enabled() bool { return h.r != nil }

// Child starts a sub-span of this span. On a disabled handle it returns
// another disabled handle.
func (h SpanHandle) Child(name string) SpanHandle {
	if h.r == nil {
		return SpanHandle{}
	}
	return h.r.start(name, h.idx)
}

// End closes the span at the current time. The first End wins; later calls
// (and End on a disabled handle) are no-ops.
func (h SpanHandle) End() {
	if h.r == nil {
		return
	}
	h.r.mu.Lock()
	if h.r.spans[h.idx].End.IsZero() {
		h.r.spans[h.idx].End = time.Now()
	}
	h.r.mu.Unlock()
}

// OnRank tags the span with the engine rank it ran on and returns the
// handle for chaining.
func (h SpanHandle) OnRank(rank int) SpanHandle {
	if h.r == nil {
		return h
	}
	h.r.mu.Lock()
	h.r.spans[h.idx].Rank = rank
	h.r.mu.Unlock()
	return h
}

// Int attaches an integer attribute.
func (h SpanHandle) Int(key string, v int64) SpanHandle {
	if h.r == nil {
		return h
	}
	h.attach(Attr{Key: key, Kind: KindInt, Int: v})
	return h
}

// Float attaches a float attribute.
func (h SpanHandle) Float(key string, v float64) SpanHandle {
	if h.r == nil {
		return h
	}
	h.attach(Attr{Key: key, Kind: KindFloat, Float: v})
	return h
}

// Str attaches a string attribute.
func (h SpanHandle) Str(key, v string) SpanHandle {
	if h.r == nil {
		return h
	}
	h.attach(Attr{Key: key, Kind: KindStr, Str: v})
	return h
}

func (h SpanHandle) attach(a Attr) {
	h.r.mu.Lock()
	h.r.spans[h.idx].Attrs = append(h.r.spans[h.idx].Attrs, a)
	h.r.mu.Unlock()
}
