package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/explint"
	"repro/internal/sched"
)

// lintExposition delegates to the shared strict exposition linter
// (internal/explint), kept as a local name so the tests read unchanged.
func lintExposition(body string) []error { return explint.Lint(body) }

func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	return string(raw)
}

// TestMetricsExpositionLint lints /metrics in three states: empty server,
// after inproc jobs (latency histograms + quantile gauges), and after a
// netmpi job (transport counters + comm-volume audit).
func TestMetricsExpositionLint(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		_, ts := newTestServer(t, nil)
		for _, err := range lintExposition(fetchMetrics(t, ts.URL)) {
			t.Error(err)
		}
	})

	t.Run("inproc-jobs", func(t *testing.T) {
		_, ts := newTestServer(t, nil)
		_, raw := postJob(t, ts, `{"n": 48, "shape": "square-corner", "seed": 1}`)
		var sub SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		pollTerminal(t, ts, sub.ID)
		body := fetchMetrics(t, ts.URL)
		for _, err := range lintExposition(body) {
			t.Error(err)
		}
		if !strings.Contains(body, "summagen_job_latency_seconds_quantile{") {
			t.Error("quantile gauge series missing")
		}
		if strings.Contains(body, "summagen_job_latency_seconds{") {
			t.Error("bare histogram-name sample present (the invalid pre-fix shape)")
		}
	})

	t.Run("netmpi-jobs", func(t *testing.T) {
		_, ts := newTestServer(t, func(c *Config) {
			c.Sched.Runner = &sched.NetmpiRunner{OpTimeout: 10 * time.Second}
			c.Sched.Observe = true
		})
		_, raw := postJob(t, ts, `{"n": 48, "shape": "square-corner", "seed": 2}`)
		var sub SubmitResponse
		if err := json.Unmarshal(raw, &sub); err != nil {
			t.Fatal(err)
		}
		pollTerminal(t, ts, sub.ID)
		body := fetchMetrics(t, ts.URL)
		for _, err := range lintExposition(body) {
			t.Error(err)
		}
		for _, want := range []string{
			"summagen_net_sent_bytes_total{rank=",
			"summagen_net_recv_bytes_total{rank=",
			`summagen_comm_volume_bytes_total{shape="square-corner",kind="predicted"}`,
			`summagen_comm_volume_bytes_total{shape="square-corner",kind="observed"}`,
			`summagen_comm_volume_ratio{shape="square-corner"}`,
			`summagen_rank_stage_seconds_total{rank="0",stage="dgemm"}`,
			`summagen_rank_dgemm_gflops{rank="0"}`,
			`summagen_rank_imbalance_ratio{shape="square-corner"}`,
			"summagen_rank_slowest_total{rank=",
			"summagen_net_frame_pool_gets_total",
			"summagen_net_frame_pool_puts_total",
			"summagen_net_frame_pool_news_total",
			"summagen_net_frame_pool_outstanding",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	})
}

// TestLintCatchesInvalidExposition sanity-checks the linter itself against
// the bug class it exists for.
func TestLintCatchesInvalidExposition(t *testing.T) {
	bad := "# TYPE summagen_job_latency_seconds histogram\n" +
		`summagen_job_latency_seconds{shape="x",quantile="0.5"} 1` + "\n"
	if errs := lintExposition(bad); len(errs) == 0 {
		t.Error("linter accepted a bare sample under a histogram TYPE")
	}
	if errs := lintExposition("orphan_metric 1\n"); len(errs) == 0 {
		t.Error("linter accepted a sample without a TYPE")
	}
	if errs := lintExposition("# TYPE foo counter\nfoo 1\n"); len(errs) == 0 {
		t.Error("linter accepted a counter not ending in _total")
	}
	if errs := lintExposition("# TYPE a_total counter\n# TYPE a_total counter\n"); len(errs) == 0 {
		t.Error("linter accepted a duplicate TYPE")
	}
}
