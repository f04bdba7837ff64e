package metrics

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/explint"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("widgets_total")
	g := r.GaugeVec("depth").With() // a family without labels
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // dropped: counters are monotonic
	g.Set(7)
	g.Set(4) // replaces
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %g, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var l *EventLog
	c.Inc()
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	l.Add("k", "m")
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 || l.Snapshot() != nil {
		t.Fatal("nil instruments must read as zero")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(float64(i%3) + 0.05)
			}
		}(i)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	if s.Cumulative[len(s.Cumulative)-1] != s.Count {
		t.Fatalf("+Inf cumulative %d != count %d", s.Cumulative[len(s.Cumulative)-1], s.Count)
	}
}

func TestVecChildrenAndGatherOrder(t *testing.T) {
	r := New()
	cv := r.CounterVec("jobs_total", "tenant")
	cv.With("beta").Inc()
	cv.With("alpha").Add(2)
	cv.With("beta").Inc()
	fams := r.Gather()
	if len(fams) != 1 || fams[0].Name != "jobs_total" {
		t.Fatalf("unexpected families: %+v", fams)
	}
	s := fams[0].Series
	if len(s) != 2 || s[0].LabelValues[0] != "alpha" || s[0].Value != 2 || s[1].Value != 2 {
		t.Fatalf("series = %+v", s)
	}
}

func TestCollectFamilies(t *testing.T) {
	r := New()
	n := 0
	r.OnGather(func() { n = 42 })
	r.CollectCounter("snap_total", []string{"kind"}, func(emit Emit) {
		emit(float64(n), "a")
		emit(float64(n*2), "b")
	})
	fams := r.Gather()
	if len(fams[0].Series) != 2 || fams[0].Series[0].Value != 42 || fams[0].Series[1].Value != 84 {
		t.Fatalf("collect series = %+v", fams[0].Series)
	}
}

func TestRegisterPanics(t *testing.T) {
	for name, fn := range map[string]func(r *Registry){
		"counter without _total": func(r *Registry) { r.Counter("bad_counter") },
		"histogram _total":       func(r *Registry) { r.Histogram("bad_total", []float64{1}) },
		"duplicate family":       func(r *Registry) { r.GaugeVec("x"); r.GaugeVec("x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn(New())
		}()
	}
}

func TestWriteTextPassesExpositionLint(t *testing.T) {
	r := New()
	r.Counter("summagen_test_jobs_total").Add(3)
	r.GaugeVec("summagen_test_depth").With().Set(2)
	hv := r.HistogramVec("summagen_test_latency_seconds", []float64{0.1, 1}, "shape")
	hv.With("square-corner").Observe(0.05)
	hv.With("square-corner").Observe(5)
	r.Histogram("summagen_test_empty_seconds", []float64{1}) // declared but unobserved

	var b strings.Builder
	WriteText(&b, r.Gather())
	body := b.String()
	if errs := explint.Lint(body); len(errs) != 0 {
		t.Fatalf("exposition lint: %v\n%s", errs, body)
	}
	for _, want := range []string{
		"# TYPE summagen_test_jobs_total counter\nsummagen_test_jobs_total 3\n",
		"summagen_test_depth 2\n",
		`summagen_test_latency_seconds_bucket{shape="square-corner",le="0.1"} 1`,
		`summagen_test_latency_seconds_bucket{shape="square-corner",le="+Inf"} 2`,
		`summagen_test_latency_seconds_count{shape="square-corner"} 2`,
		`summagen_test_latency_seconds_quantile{shape="square-corner",quantile="0.5"}`,
		"# TYPE summagen_test_empty_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, "summagen_test_latency_seconds{") {
		t.Errorf("bare histogram sample leaked:\n%s", body)
	}
}

func TestParseMergeRenderRoundTrip(t *testing.T) {
	bodyA := "# TYPE a_total counter\na_total 1\n# TYPE b gauge\nb 5\n"
	bodyB := "# TYPE a_total counter\na_total 7\n"
	pa, pb := ParseText(bodyA), ParseText(bodyB)
	for i, f := range pa {
		for j := range f.Samples {
			pa[i].Samples[j] = InjectLabel(f.Samples[j], "instance", "s-0")
		}
	}
	for i, f := range pb {
		for j := range f.Samples {
			pb[i].Samples[j] = InjectLabel(f.Samples[j], "instance", "s-1")
		}
	}
	var b strings.Builder
	RenderText(&b, MergeText(pa, pb))
	got := b.String()
	want := "# TYPE a_total counter\n" +
		`a_total{instance="s-0"} 1` + "\n" +
		`a_total{instance="s-1"} 7` + "\n" +
		"# TYPE b gauge\n" +
		`b{instance="s-0"} 5` + "\n"
	if got != want {
		t.Fatalf("merged exposition:\n%s\nwant:\n%s", got, want)
	}
	if errs := explint.Lint(got); len(errs) != 0 {
		t.Fatalf("merged lint: %v", errs)
	}
}

func TestInjectLabelIntoLabeledSample(t *testing.T) {
	got := InjectLabel(`x_total{a="b"} 3`, "instance", "s-9")
	if got != `x_total{instance="s-9",a="b"} 3` {
		t.Fatalf("inject = %q", got)
	}
}
