package metrics

import (
	"math"
	"sort"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

// tickCounter records a hand-built counter series into a store at 1s
// resolution.
func tickCounter(s *Store, name string, vals []float64) {
	fams := []FamilySnapshot{{Name: name, Kind: KindCounter}}
	for i, v := range vals {
		fams[0].Series = []SeriesSnapshot{{Value: v}}
		s.Record(t0.Add(time.Duration(i)*time.Second), fams)
	}
}

func TestRingWraparound(t *testing.T) {
	s := NewStore(4*time.Second, time.Second) // 5 slots
	vals := make([]float64, 12)
	for i := range vals {
		vals[i] = float64(i)
	}
	tickCounter(s, "c_total", vals)
	now := t0.Add(11 * time.Second)
	// Only the last 5 samples (7..11) survive; a dump over everything
	// must show exactly those.
	dump := s.Dump(time.Hour, now)
	if len(dump) != 1 {
		t.Fatalf("series = %d, want 1", len(dump))
	}
	pts := dump[0].Points
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5 (ring capacity)", len(pts))
	}
	if pts[0].V != 7 || pts[4].V != 11 {
		t.Fatalf("ring kept %v, want 7..11", pts)
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].T < pts[j].T }) {
		t.Fatal("dump not time-ordered")
	}
	inc, ok := s.Increase("c_total", nil, 4*time.Second, now)
	if !ok || inc != 4 {
		t.Fatalf("increase = %g ok=%v, want 4", inc, ok)
	}
}

func TestIncreaseAcrossCounterReset(t *testing.T) {
	s := NewStore(20*time.Second, time.Second)
	// 0,5,9 then the process restarts: 2,4 — total growth 9 + 2 + 2.
	tickCounter(s, "c_total", []float64{0, 5, 9, 2, 4})
	inc, ok := s.Increase("c_total", nil, 10*time.Second, t0.Add(4*time.Second))
	if !ok || inc != 13 {
		t.Fatalf("increase = %g ok=%v, want 13 (reset-aware)", inc, ok)
	}
	rate, ok := s.Rate("c_total", nil, 10*time.Second, t0.Add(4*time.Second))
	if !ok || math.Abs(rate-1.3) > 1e-9 {
		t.Fatalf("rate = %g, want 1.3", rate)
	}
}

func TestIncreaseAnchorsOnPreWindowSample(t *testing.T) {
	s := NewStore(20*time.Second, time.Second)
	tickCounter(s, "c_total", []float64{10, 20, 30, 40})
	// Window covers the last two samples; the sample just before the
	// window (20 at t=1) seeds the first delta, so increase = 40-20.
	inc, ok := s.Increase("c_total", nil, 2*time.Second, t0.Add(3*time.Second))
	if !ok || inc != 20 {
		t.Fatalf("increase = %g, want 20", inc)
	}
}

func TestLabelMatchingIsExact(t *testing.T) {
	s := NewStore(20*time.Second, time.Second)
	fams := []FamilySnapshot{{
		Name: "c_total", Kind: KindCounter, Labels: []string{"tenant"},
		Series: []SeriesSnapshot{
			{LabelValues: []string{"a"}, Value: 1},
			{LabelValues: []string{"b"}, Value: 100},
		},
	}}
	s.Record(t0, fams)
	fams[0].Series[0].Value = 5
	fams[0].Series[1].Value = 101
	s.Record(t0.Add(time.Second), fams)
	now := t0.Add(time.Second)
	inc, ok := s.Increase("c_total", map[string]string{"tenant": "a"}, 10*time.Second, now)
	if !ok || inc != 4 {
		t.Fatalf("tenant=a increase = %g, want 4", inc)
	}
	if _, ok := s.Increase("c_total", nil, 10*time.Second, now); ok {
		t.Fatal("label-less query must not match labeled series")
	}
	sets := s.LabelSets("c_total")
	if len(sets) != 2 || sets[0]["tenant"] != "a" || sets[1]["tenant"] != "b" {
		t.Fatalf("label sets = %v", sets)
	}
}

// TestWindowQuantileAgainstBruteForce drives a histogram through the
// sampler path and checks CountOverLE, the windowed bucket increase the SLO
// latency SLI reads, against a brute-force count of the raw in-window
// observations at or below each target's bucket bound. The quantiles the
// exposition serves (HistSnapshot.Quantile) must land in the bucket of the
// empirical quantile of every observation.
func TestWindowQuantileAgainstBruteForce(t *testing.T) {
	bounds := []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10}
	r := New()
	h := r.Histogram("lat_seconds", bounds)
	s := NewStore(time.Minute, time.Second)
	sampler := NewSampler(r, s, time.Second, nil)

	rng := uint64(1)
	next := func() float64 { // xorshift, values spread over the buckets
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return float64(rng%1000) / 100 // 0..9.99
	}
	var all, inWindow []float64
	for tick := 0; tick < 30; tick++ {
		for j := 0; j < 20; j++ {
			v := next()
			h.Observe(v)
			all = append(all, v)
			if tick >= 10 { // the last 20 ticks form the query window
				inWindow = append(inWindow, v)
			}
		}
		sampler.Tick(t0.Add(time.Duration(tick) * time.Second))
	}
	now := t0.Add(29 * time.Second)
	window := 20 * time.Second // covers ticks 10..29 (pre-window anchor at tick 9)

	// A target between bounds counts up to the next bound; one past every
	// finite bound counts everything.
	for _, target := range []float64{0.01, 0.07, 0.5, 3, 10, 20} {
		good, total, ok := s.CountOverLE("lat_seconds", nil, target, window, now)
		if !ok {
			t.Fatalf("target %g: no data", target)
		}
		le := math.Inf(1)
		if i := sort.SearchFloat64s(bounds, target); i < len(bounds) {
			le = bounds[i]
		}
		want := 0
		for _, v := range inWindow {
			if v <= le {
				want++
			}
		}
		if good != float64(want) || total != float64(len(inWindow)) {
			t.Errorf("target %g: good %g of %g, brute force %d of %d", target, good, total, want, len(inWindow))
		}
	}

	sort.Float64s(all)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := h.Snapshot().Quantile(q)
		exact := all[int(q*float64(len(all)-1))]
		if sort.SearchFloat64s(bounds, got) != sort.SearchFloat64s(bounds, exact) {
			t.Errorf("q%g = %g in wrong bucket vs empirical %g", q, got, exact)
		}
	}
}

// latest returns the newest point of the series with exactly these labels.
func latest(s *Store, name string, labels map[string]string) (float64, bool) {
	for _, d := range s.Dump(time.Hour, t0) {
		if d.Name == name && len(d.Labels) == len(labels) {
			match := true
			for k, v := range labels {
				match = match && d.Labels[k] == v
			}
			if match {
				return d.Points[len(d.Points)-1].V, true
			}
		}
	}
	return 0, false
}

func TestSamplerRecordsHistogramSeries(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", []float64{1, 10})
	s := NewStore(time.Minute, time.Second)
	sampler := NewSampler(r, s, time.Second, nil)
	h.Observe(0.5)
	h.Observe(20)
	sampler.Tick(t0)
	if v, ok := latest(s, "lat_seconds_count", nil); !ok || v != 2 {
		t.Fatalf("count series = %g ok=%v", v, ok)
	}
	if v, ok := latest(s, "lat_seconds_bucket", map[string]string{"le": "1"}); !ok || v != 1 {
		t.Fatalf("le=1 bucket = %g ok=%v", v, ok)
	}
	if v, ok := latest(s, "lat_seconds_bucket", map[string]string{"le": "+Inf"}); !ok || v != 2 {
		t.Fatalf("+Inf bucket = %g ok=%v", v, ok)
	}
}

func TestEventLogBounded(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Add("k", "e%d", i)
	}
	got := l.Snapshot()
	if len(got) != 3 || got[0].Detail != "e2" || got[2].Detail != "e4" {
		t.Fatalf("events = %+v, want e2..e4", got)
	}
}
