package router

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/explint"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// TestInjectInstanceLabel pins the shared label-injection helper to the
// sample shapes the serve layer actually emits.
func TestInjectInstanceLabel(t *testing.T) {
	cases := map[string]string{
		`summagen_jobs_done_total 3`:                  `summagen_jobs_done_total{instance="i0"} 3`,
		`summagen_jobs_total{state="done"} 3`:         `summagen_jobs_total{instance="i0",state="done"} 3`,
		`summagen_span_seconds_bucket{le="+Inf"} 1.5`: `summagen_span_seconds_bucket{instance="i0",le="+Inf"} 1.5`,
	}
	for in, want := range cases {
		if got := metrics.InjectLabel(in, "instance", "i0"); got != want {
			t.Fatalf("inject(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestMergeExpositionsDedupesTypes pins the router's merge path — parse,
// inject instance labels, merge, render — to once-only TYPE lines.
func TestMergeExpositionsDedupesTypes(t *testing.T) {
	body := "# TYPE summagen_jobs_done_total counter\nsummagen_jobs_done_total 2\n"
	var parts [][]metrics.TextFamily
	for _, id := range []string{"i0", "i1"} {
		fams := metrics.ParseText(body)
		for fi, f := range fams {
			for si, s := range f.Samples {
				fams[fi].Samples[si] = metrics.InjectLabel(s, "instance", id)
			}
		}
		parts = append(parts, fams)
	}
	var b strings.Builder
	metrics.RenderText(&b, metrics.MergeText(parts...))
	merged := b.String()
	if n := strings.Count(merged, "# TYPE summagen_jobs_done_total"); n != 1 {
		t.Fatalf("TYPE declared %d times:\n%s", n, merged)
	}
	for _, want := range []string{
		`summagen_jobs_done_total{instance="i0"} 2`,
		`summagen_jobs_done_total{instance="i1"} 2`,
	} {
		if !strings.Contains(merged, want) {
			t.Fatalf("merged missing %q:\n%s", want, merged)
		}
	}
	if errs := explint.Lint(merged); len(errs) != 0 {
		t.Fatalf("merged exposition fails lint: %v", errs)
	}
}

// TestRouterMetricsExpositionLint scrapes a live 2-instance cluster through
// the router and holds the merged body to the same strict exposition lint
// the single-instance /metrics obeys — plus the router/fleet families the
// cluster tier adds.
func TestRouterMetricsExpositionLint(t *testing.T) {
	cl := newCluster(t, 2, nil, nil)

	// One job per instance so per-instance families carry real samples:
	// two sizes whose plan keys different instances own. A dead-instance
	// submit path exercising reroute counters is not needed here —
	// routed/rejected families self-describe even at zero.
	sizeOwnedBy := map[string]int{}
	for n := 32; n < 256 && len(sizeOwnedBy) < 2; n += 8 {
		key := sched.PlanKey(sched.JobSpec{N: n})
		owner := "i0"
		if rendezvousWeight(key, "i1") > rendezvousWeight(key, "i0") {
			owner = "i1"
		}
		if _, ok := sizeOwnedBy[owner]; !ok {
			sizeOwnedBy[owner] = n
		}
	}
	if len(sizeOwnedBy) < 2 {
		t.Fatalf("no two sizes in [32, 256) with different owners: %v", sizeOwnedBy)
	}
	var ids []string
	for i, id := range []string{"i0", "i1"} {
		resp, sub, raw := cl.submit(t, fmt.Sprintf(`{"n": %d, "seed": %d}`, sizeOwnedBy[id], i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		if st := cl.pollTerminal(t, id); st.State != "done" {
			t.Fatalf("job %s failed: %+v", id, st.Error)
		}
	}

	resp, err := http.Get(cl.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	if errs := explint.Lint(body); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("lint: %v", e)
		}
		t.Fatalf("merged cluster exposition violates the format:\n%s", body)
	}

	for _, want := range []string{
		`summagen_jobs_done_total{instance="i0"}`,
		`summagen_jobs_done_total{instance="i1"}`,
		`summagen_plan_cache_total{instance="i0",outcome="miss"}`,
		"# TYPE summagen_router_backend_up gauge",
		`summagen_router_backend_up{instance="i0"} 1`,
		`summagen_router_backends{state="healthy"} 2`,
		"# TYPE summagen_fleet_queue_depth gauge",
		"# TYPE summagen_fleet_inflight_jobs gauge",
		`summagen_router_routed_total{instance="i0",policy="affinity"} 1`,
		`summagen_router_routed_total{instance="i1",policy="affinity"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("cluster exposition missing %q:\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE summagen_jobs_done_total counter"); n != 1 {
		t.Fatalf("per-instance family TYPE declared %d times", n)
	}
}
