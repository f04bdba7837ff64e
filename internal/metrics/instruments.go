// Package metrics is the in-process metrics core: a typed registry of
// atomic counters, gauges, and internally synchronized histograms with
// labeled families; a shared Prometheus text-exposition writer (and the
// matching parser the router uses to merge per-instance scrapes); and a
// ring-buffer time-series store fed by a fixed-interval sampler, with
// windowed rate/delta/quantile queries and a bounded event log for the
// flight recorder.
//
// Every instrument is nil-safe: a nil *Counter, *Gauge, or *Histogram is
// an allocation-free no-op, so a disabled metrics path costs nothing —
// the same idiom internal/obs uses for disabled tracing.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64. The value lives in a
// single atomic word (IEEE 754 bits), so Inc/Add are lock-free and
// allocation-free. Negative deltas are dropped — counters only go up;
// resets happen by process restart, which the time-series store's
// increase query understands.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (ignored when negative). Safe on a nil receiver.
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 that can move in either direction.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the value by v (v may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram that owns its synchronization:
// Observe takes an internal mutex, so callers never coordinate access
// themselves. Observe is allocation-free.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // finite upper bounds, ascending
	counts []uint64  // per-bucket (not cumulative); counts[len(bounds)] is +Inf
	count  uint64
	sum    float64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value. Safe on a nil receiver and for concurrent
// use.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds:     h.bounds, // immutable after construction
		Cumulative: make([]uint64, len(h.counts)),
		Count:      h.count,
		Sum:        h.sum,
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		s.Cumulative[i] = cum
	}
	return s
}

// HistSnapshot is a point-in-time copy of a histogram: cumulative counts
// per upper bound (the last entry is the +Inf bucket and equals Count).
type HistSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Quantile estimates the q-quantile (0..1) with Prometheus-style linear
// interpolation inside the owning bucket; observations in the +Inf bucket
// clamp to the largest finite bound. NaN when empty.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	for i, cum := range s.Cumulative {
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = s.Bounds[i-1]
			below = s.Cumulative[i-1]
		}
		inBucket := cum - below
		if inBucket == 0 {
			return s.Bounds[i]
		}
		return lower + (s.Bounds[i]-lower)*(rank-float64(below))/float64(inBucket)
	}
	return s.Bounds[len(s.Bounds)-1]
}
