package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/serve"
)

// TestMain lets the test binary stand in for the benchmark's own: a pass that
// re-executes itself (runChild) reaches main through it.
func TestMain(m *testing.M) {
	if os.Getenv(asBenchEnv) != "" {
		main()
		return
	}
	os.Setenv(asBenchEnv, "1") //nolint:errcheck // a fixed, valid name
	os.Exit(m.Run())
}

const asBenchEnv = "SUMMAGEN_BENCH_CHILD"

func TestSupportedPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct {
		n, want, used int
	}{
		{1000, 99, 99}, // 10 samples beyond p99
		{999, 99, 98},  // 9.99 beyond: falls to p98
		{100, 90, 90},
		{99, 90, 89},
		{50, 90, 80},
		{15, 90, 50}, // never below the median
		{0, 90, 50},
	} {
		_, used := supportedPercentile(ramp(tc.n), tc.want)
		if used != tc.used {
			t.Errorf("n=%d want p%d: reported p%d, expected p%d", tc.n, tc.want, used, tc.used)
		}
	}
	if v, _ := supportedPercentile(ramp(101), 90); v != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
	// quantiles([1, 2, 3], n=4) → [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v; want 1, 3", q1, q3)
	}
}

// TestReferenceCatchesAnUnwrittenCell: a correct multiply is within the
// tolerance of the serial reference, and checked rows the engine did not write
// (they are NaN-poisoned before a checked op) fail instead of passing on the
// previous op's result.
func TestReferenceCatchesAnUnwrittenCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in, err := newEngineInputs(64, partition.Shapes[:1], rng)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := newReference(in.a, in.b, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Multiply(in.a, in.b, in.c, core.Config{Layout: in.layouts[0]}); err != nil {
		t.Fatal(err)
	}
	if d := ref.maxErr(in.c); d > ref.tol {
		t.Errorf("correct product is %g from the reference, tolerance %g", d, ref.tol)
	}
	ref.poison(in.c)
	if d := ref.maxErr(in.c); !math.IsInf(d, 1) {
		t.Errorf("poisoned rows pass the check: max error %g", d)
	}
}

func TestSelfTimeUsesUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add("op", 0, -1, 0, at(0), at(100))
	tr.add("rank", 0, root, 1, at(10), at(60)) // two ranks overlap on 30..60
	tr.add("rank", 0, root, 2, at(30), at(80))
	self := tr.selfTimes()
	if got := self["op"].Ms; math.Abs(got-30) > 1e-9 { // 100 − |10..80|
		t.Errorf("op self time = %v ms, want 30", got)
	}
	if got := self["rank"]; math.Abs(got.Ms-100) > 1e-9 || got.Lanes != 2 { // both ranks' own time, summed
		t.Errorf("rank self time = %+v, want 100 ms on 2 lanes", got)
	}
}

// TestOpenLoopChargesStallFromDueTime runs the open-loop generator against a
// fake front door that finishes every job at once but stalls one submission
// for 200 ms. Jobs that fell due during the stall must be charged from their
// due time, and the generator must own up to having run late.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stallAt, stall = 10, 200 * time.Millisecond
	var mu sync.Mutex
	finished := map[string]time.Time{}
	next := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		k := next
		next++
		mu.Unlock()
		if k == stallAt {
			time.Sleep(stall)
		}
		id := fmt.Sprintf("j%d", k)
		mu.Lock()
		finished[id] = time.Now()
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.SubmitResponse{ID: id, State: "queued"}) //nolint:errcheck // test server
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		at := finished[r.PathValue("id")]
		mu.Unlock()
		json.NewEncoder(w).Encode(serve.JobStatus{ID: r.PathValue("id"), State: "done", FinishedAt: &at}) //nolint:errcheck // test server
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const jobs = 40
	reqs := make([]*serve.SubmitRequest, jobs)
	due := make([]time.Duration, jobs)
	for i := range reqs {
		reqs[i] = &serve.SubmitRequest{N: 8}
		due[i] = time.Duration(i) * 10 * time.Millisecond // one every 10 ms
	}
	results := runOpen(srv.URL, reqs, due, time.Millisecond)

	var lateMs []float64
	for i := range results {
		s := results[i].sample(8)
		if !s.ok {
			t.Fatalf("job %d failed: %v", i, results[i].err)
		}
		lateMs = append(lateMs, ms(s.late))
		if i == stallAt+5 {
			// Due 50 ms into a 200 ms stall: sent ≥ 150 ms late, and the
			// op's latency carries all of that.
			if got := s.latencyMs(); got < 140 {
				t.Errorf("job %d latency %.1f ms: the stall was not charged from its due time", i, got)
			}
		}
	}
	if worst := sorted(lateMs)[jobs-1]; worst < 150 {
		t.Errorf("generator lateness peaks at %.1f ms; a 200 ms stall must show", worst)
	}
	if early := sorted(lateMs)[0]; early > 20 {
		t.Errorf("the first jobs ran %.1f ms late with nothing stalling them", early)
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryMetricOfTheContract runs all four workloads, both passes, at
// a small fraction of their length and checks that each pass emits exactly the
// metrics BENCHMARK.json names, each once, with its unit and a finite value,
// and that no op fails.
func TestSmokeEveryMetricOfTheContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(t *testing.T, res *result, want []struct{ Name, Unit string }) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, the contract names %d", len(res.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := res.Metrics[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
			case !ok:
				t.Errorf("metric %s not emitted", m.Name)
			case got.Unit != m.Unit:
				t.Errorf("metric %s has unit %q, the contract says %q", m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("metric %s = %v", m.Name, got.Value)
			}
		}
	}
	for _, cw := range c.Workloads {
		w := findWorkload(cw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", cw.Name)
		}
		// The workloads run side by side (nothing here asserts a time), each
		// writing its own out/.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := options{seed: 1, seconds: 0.15, dir: t.TempDir()}
			res, err := untracedPass(w, o)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, c.EndToEnd)
			if res, err = tracedPass(w, o); err != nil {
				t.Fatal(err)
			}
			check(t, res, c.PerLayer)
			for _, f := range []string{"trace-" + w.name + ".json", "layers.json", "REPORT.md"} {
				if st, err := os.Stat(o.dir + "/out/" + f); err != nil || st.Size() == 0 {
					t.Errorf("traced pass did not write out/%s: %v", f, err)
				}
			}
		})
	}
}

// TestDriverRunRoundTrip makes one run the way the driver and -agree do: a
// child process for the workload, which times its further cold set-ups in
// children of its own, and a result line that parses.
func TestDriverRunRoundTrip(t *testing.T) {
	o := options{seconds: 0.05, dir: t.TempDir()}
	res, err := runChild(o, "engine-tcp-n128", 3, false, "-trace", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, name := range []string{"setup_s", "op_p50_ms", "ops_per_s"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v", name, v)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * by
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		sets   [][]float64
		better string
		want   string
	}{
		{"same", [][]float64{steady, steady}, "lower", "ok"},
		{"slower", [][]float64{steady, shift(steady, 1.2)}, "lower", "beyond bound"},
		{"faster", [][]float64{steady, shift(steady, 0.8)}, "lower", "ok"},
		{"less throughput", [][]float64{steady, shift(steady, 0.8)}, "higher", "beyond bound"},
		{"too noisy to say", [][]float64{steady, {8, 9, 10, 11, 12, 13, 14}}, "lower", "unresolved"},
	} {
		if _, _, _, _, word := verdict(tc.sets, tc.better, 0.1); word != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, word, tc.want)
		}
	}
}
