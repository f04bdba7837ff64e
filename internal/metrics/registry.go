package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Emit appends one sample to a collect-backed family's snapshot. The
// label values must match the family's declared label names in order.
type Emit func(v float64, labelValues ...string)

// CollectFunc produces a collect-backed family's samples at gather time.
// It is called with the registry lock held; it must not call back into
// the registry.
type CollectFunc func(emit Emit)

// Registry holds an ordered set of metric families. Registration order is
// exposition order. Instrument updates never take the registry lock —
// only registration and Gather do.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	onGather []func()
}

type family struct {
	name    string
	kind    Kind
	labels  []string
	bounds  []float64 // histograms only
	collect CollectFunc

	mu       sync.Mutex
	children map[string]*child
	order    []string
}

type child struct {
	values  []string
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OnGather registers a hook that runs at the start of every Gather,
// before any family is snapshotted — the place to refresh a cached
// snapshot that several collect-backed families read.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onGather = append(r.onGather, fn)
}

func (r *Registry) register(name string, kind Kind, labels []string, bounds []float64, collect CollectFunc) *family {
	if kind == KindCounter && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("metrics: counter %q must end in _total", name))
	}
	if kind == KindHistogram {
		for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) {
				panic(fmt.Sprintf("metrics: histogram %q must not end in %s", name, suffix))
			}
		}
		if len(bounds) == 0 {
			panic(fmt.Sprintf("metrics: histogram %q needs bucket bounds", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate family %q", name))
	}
	f := &family{name: name, kind: kind, labels: labels, bounds: bounds, collect: collect}
	if collect == nil {
		f.children = map[string]*child{}
		if len(labels) == 0 {
			// Scalar instruments always render, even before first use.
			f.getOrCreate(nil)
		}
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers an unlabeled counter (name must end in _total).
func (r *Registry) Counter(name string) *Counter {
	return r.register(name, KindCounter, nil, nil, nil).getOrCreate(nil).counter
}

// Histogram registers an unlabeled histogram over the given finite
// ascending bucket bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.register(name, KindHistogram, nil, bounds, nil).getOrCreate(nil).hist
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, KindCounter, labels, nil, nil)}
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, KindGauge, labels, nil, nil)}
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, KindHistogram, labels, bounds, nil)}
}

// CollectCounter registers a counter family whose samples come from fn at
// gather time — for totals owned by another subsystem's snapshot (the
// scheduler's counters, transport stats) that should still expose as
// first-class registered instruments.
func (r *Registry) CollectCounter(name string, labels []string, fn CollectFunc) {
	r.register(name, KindCounter, labels, nil, fn)
}

// CollectGauge registers a gauge family whose samples come from fn.
func (r *Registry) CollectGauge(name string, labels []string, fn CollectFunc) {
	r.register(name, KindGauge, labels, nil, fn)
}

const labelSep = "\xff"

func (f *family) getOrCreate(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.children[key]
	if c == nil {
		c = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case KindCounter:
			c.counter = &Counter{}
		case KindGauge:
			c.gauge = &Gauge{}
		case KindHistogram:
			c.hist = newHistogram(f.bounds)
		}
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// CounterVec hands out per-label-set counters.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use. The handle is stable — cache it on hot paths.
func (v *CounterVec) With(values ...string) *Counter { return v.f.getOrCreate(values).counter }

// GaugeVec hands out per-label-set gauges.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.getOrCreate(values).gauge }

// HistogramVec hands out per-label-set histograms.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.getOrCreate(values).hist }

// FamilySnapshot is one family's state at gather time.
type FamilySnapshot struct {
	Name   string
	Kind   Kind
	Labels []string
	Series []SeriesSnapshot
}

// SeriesSnapshot is one labeled series inside a family. Hist is set for
// histograms; Value for everything else.
type SeriesSnapshot struct {
	LabelValues []string
	Value       float64
	Hist        *HistSnapshot
}

// Gather snapshots every family in registration order. Instrument series
// appear sorted by label values; collect-backed series appear in emit
// order.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fn := range r.onGather {
		fn()
	}
	out := make([]FamilySnapshot, 0, len(r.families))
	for _, f := range r.families {
		fs := FamilySnapshot{Name: f.name, Kind: f.kind, Labels: f.labels}
		if f.collect != nil {
			f.collect(func(v float64, labelValues ...string) {
				if len(labelValues) != len(f.labels) {
					panic(fmt.Sprintf("metrics: collect for %s emitted %d label values, want %d",
						f.name, len(labelValues), len(f.labels)))
				}
				fs.Series = append(fs.Series, SeriesSnapshot{
					LabelValues: append([]string(nil), labelValues...),
					Value:       v,
				})
			})
		} else {
			f.mu.Lock()
			keys := append([]string(nil), f.order...)
			sort.Strings(keys)
			for _, key := range keys {
				c := f.children[key]
				ss := SeriesSnapshot{LabelValues: c.values}
				switch f.kind {
				case KindCounter:
					ss.Value = c.counter.Value()
				case KindGauge:
					ss.Value = c.gauge.Value()
				case KindHistogram:
					h := c.hist.Snapshot()
					ss.Hist = &h
				}
				fs.Series = append(fs.Series, ss)
			}
			f.mu.Unlock()
		}
		out = append(out, fs)
	}
	return out
}
