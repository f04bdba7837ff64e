package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store is a bounded in-process time-series database: every sampled
// series keeps the last `slots` points in a ring, so memory is fixed at
// (series × slots) regardless of uptime. The sampler appends one point
// per series per tick; queries answer windowed increase/rate/delta and
// histogram quantiles, and Dump replays whole windows for the flight
// recorder.
type Store struct {
	mu       sync.Mutex
	slots    int
	interval time.Duration
	series   map[string]*series
	order    []string
}

type series struct {
	name        string
	labelNames  []string
	labelValues []string
	t           []int64 // unix nanos, ring
	v           []float64
	head        int // next write position
	n           int // filled
}

// NewStore sizes the ring to cover `window` at one sample per
// `interval` (plus one slot so a full window of deltas is answerable).
func NewStore(window, interval time.Duration) *Store {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	slots := int(window/interval) + 1
	if slots < 2 {
		slots = 2
	}
	return &Store{slots: slots, interval: interval, series: map[string]*series{}}
}

// Interval returns the sampling interval the store was sized for.
func (s *Store) Interval() time.Duration { return s.interval }

// WindowSeconds returns the span of history the ring can hold.
func (s *Store) WindowSeconds() float64 {
	return (time.Duration(s.slots-1) * s.interval).Seconds()
}

// Record appends one point per series from a gathered snapshot.
// Histograms expand the same way the exposition does: one _bucket series
// per bound (labeled le), plus _sum and _count.
func (s *Store) Record(now time.Time, fams []FamilySnapshot) {
	ts := now.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range fams {
		for _, ss := range f.Series {
			if f.Kind != KindHistogram {
				s.append(ts, f.Name, f.Labels, ss.LabelValues, nil, ss.Value)
				continue
			}
			h := ss.Hist
			for i, cum := range h.Cumulative {
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatValue(h.Bounds[i])
				}
				s.append(ts, f.Name+"_bucket", f.Labels, ss.LabelValues, []string{"le", le}, float64(cum))
			}
			s.append(ts, f.Name+"_sum", f.Labels, ss.LabelValues, nil, h.Sum)
			s.append(ts, f.Name+"_count", f.Labels, ss.LabelValues, nil, float64(h.Count))
		}
	}
}

func (s *Store) append(ts int64, name string, labelNames, labelValues, extra []string, v float64) {
	var key strings.Builder
	key.WriteString(name)
	for i, ln := range labelNames {
		key.WriteString(labelSep)
		key.WriteString(ln)
		key.WriteByte('=')
		key.WriteString(labelValues[i])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		key.WriteString(labelSep)
		key.WriteString(extra[i])
		key.WriteByte('=')
		key.WriteString(extra[i+1])
	}
	k := key.String()
	sr := s.series[k]
	if sr == nil {
		ln := append([]string(nil), labelNames...)
		lv := append([]string(nil), labelValues...)
		for i := 0; i+1 < len(extra); i += 2 {
			ln = append(ln, extra[i])
			lv = append(lv, extra[i+1])
		}
		sr = &series{
			name: name, labelNames: ln, labelValues: lv,
			t: make([]int64, s.slots), v: make([]float64, s.slots),
		}
		s.series[k] = sr
		s.order = append(s.order, k)
	}
	sr.t[sr.head] = ts
	sr.v[sr.head] = v
	sr.head = (sr.head + 1) % s.slots
	if sr.n < s.slots {
		sr.n++
	}
}

// points returns the series' samples oldest→newest.
func (sr *series) points(slots int) ([]int64, []float64) {
	ts := make([]int64, 0, sr.n)
	vs := make([]float64, 0, sr.n)
	start := (sr.head - sr.n + slots) % slots
	for i := 0; i < sr.n; i++ {
		j := (start + i) % slots
		ts = append(ts, sr.t[j])
		vs = append(vs, sr.v[j])
	}
	return ts, vs
}

func (sr *series) matches(name string, labels map[string]string, ignore string) bool {
	if sr.name != name {
		return false
	}
	n := 0
	for i, ln := range sr.labelNames {
		if ln == ignore {
			continue
		}
		want, ok := labels[ln]
		if !ok || want != sr.labelValues[i] {
			return false
		}
		n++
	}
	return n == len(labels)
}

func (s *Store) find(name string, labels map[string]string) *series {
	for _, k := range s.order {
		if sr := s.series[k]; sr.matches(name, labels, "") {
			return sr
		}
	}
	return nil
}

// Increase returns how much a counter series grew inside [now-window,
// now], counter resets included: a sample below its predecessor is
// treated as a restart, contributing its full post-reset value —
// process-restart semantics. The sample just before the window anchors
// the first delta so a full window is actually covered.
func (s *Store) Increase(name string, labels map[string]string, window time.Duration, now time.Time) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.find(name, labels)
	if sr == nil || sr.n == 0 {
		return 0, false
	}
	return increase(sr, s.slots, window, now), true
}

func increase(sr *series, slots int, window time.Duration, now time.Time) float64 {
	ts, vs := sr.points(slots)
	cutoff := now.Add(-window).UnixNano()
	limit := now.UnixNano()
	total := 0.0
	started := false
	var prev float64
	for i, t := range ts {
		if t > limit {
			break
		}
		// The window is half-open (now-window, now]: the sample sitting
		// exactly on the boundary — and any earlier one — seeds prev
		// without contributing, so a full window of deltas is covered.
		inWindow := t > cutoff
		if !inWindow {
			prev, started = vs[i], true
			continue
		}
		if !started {
			prev, started = vs[i], true
			continue
		}
		cur := vs[i]
		if cur >= prev {
			total += cur - prev
		} else {
			total += cur // reset: everything since restart counts
		}
		prev = cur
	}
	return total
}

// Rate is Increase divided by the window length in seconds.
func (s *Store) Rate(name string, labels map[string]string, window time.Duration, now time.Time) (float64, bool) {
	inc, ok := s.Increase(name, labels, window, now)
	if !ok {
		return 0, false
	}
	return inc / window.Seconds(), true
}

// bucketIncrease collects each le-bucket's windowed increase for one
// histogram's _bucket series matching the given (non-le) labels.
func (s *Store) bucketIncrease(hist string, labels map[string]string, window time.Duration, now time.Time) ([]float64, []float64) {
	var les, incs []float64
	for _, k := range s.order {
		sr := s.series[k]
		if !sr.matches(hist+"_bucket", labels, "le") {
			continue
		}
		le := math.Inf(1)
		for i, ln := range sr.labelNames {
			if ln == "le" && sr.labelValues[i] != "+Inf" {
				le, _ = strconv.ParseFloat(sr.labelValues[i], 64)
			}
		}
		les = append(les, le)
		incs = append(incs, increase(sr, s.slots, window, now))
	}
	sort.Sort(&leSorter{les, incs})
	return les, incs
}

type leSorter struct{ les, incs []float64 }

func (s *leSorter) Len() int           { return len(s.les) }
func (s *leSorter) Less(i, j int) bool { return s.les[i] < s.les[j] }
func (s *leSorter) Swap(i, j int) {
	s.les[i], s.les[j] = s.les[j], s.les[i]
	s.incs[i], s.incs[j] = s.incs[j], s.incs[i]
}

// CountOverLE returns the windowed increase of observations at or below
// the smallest bucket bound ≥ target — the "good event" count for a
// latency SLO — plus the total increase. ok is false when the histogram
// has no bucket series yet.
func (s *Store) CountOverLE(hist string, labels map[string]string, target float64, window time.Duration, now time.Time) (good, total float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	les, incs := s.bucketIncrease(hist, labels, window, now)
	if len(les) == 0 {
		return 0, 0, false
	}
	total = incs[len(incs)-1]
	good = total // if target exceeds every finite bound, everything is good
	for i, le := range les {
		if le >= target {
			good = incs[i]
			break
		}
	}
	return good, total, true
}

// LabelSets returns the distinct label sets of all series with the given
// name, in first-seen order.
func (s *Store) LabelSets(name string) []map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []map[string]string
	for _, k := range s.order {
		sr := s.series[k]
		if sr.name != name {
			continue
		}
		m := make(map[string]string, len(sr.labelNames))
		for i, ln := range sr.labelNames {
			m[ln] = sr.labelValues[i]
		}
		out = append(out, m)
	}
	return out
}

// SeriesDump is one series' window of points, JSON-shaped for the flight
// recorder.
type SeriesDump struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []DumpPoint       `json:"points"`
}

// DumpPoint is (unix seconds, value).
type DumpPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// Dump returns every series' points inside [now-window, now], skipping
// series with no points in the window.
func (s *Store) Dump(window time.Duration, now time.Time) []SeriesDump {
	s.mu.Lock()
	defer s.mu.Unlock()
	cutoff := now.Add(-window).UnixNano()
	var out []SeriesDump
	for _, k := range s.order {
		sr := s.series[k]
		ts, vs := sr.points(s.slots)
		var pts []DumpPoint
		for i, t := range ts {
			if t < cutoff {
				continue
			}
			pts = append(pts, DumpPoint{T: float64(t) / 1e9, V: vs[i]})
		}
		if len(pts) == 0 {
			continue
		}
		d := SeriesDump{Name: sr.name, Points: pts}
		if len(sr.labelNames) > 0 {
			d.Labels = make(map[string]string, len(sr.labelNames))
			for i, ln := range sr.labelNames {
				d.Labels[ln] = sr.labelValues[i]
			}
		}
		out = append(out, d)
	}
	return out
}
