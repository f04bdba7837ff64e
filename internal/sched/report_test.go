package sched

import (
	"testing"
	"time"
)

// TestNetmpiReportIsTheEngines: a netmpi job's Report is the one the engine
// builds from its Timeline, as on the in-process runner: one PerRank entry
// per rank, flops summing to exactly 2N³, per-rank maxima within the
// parallel time, and the plan's optimality ratio.
func TestNetmpiReportIsTheEngines(t *testing.T) {
	const n = 64
	s := newTestScheduler(t, func(c *Config) { c.Runner = &NetmpiRunner{OpTimeout: 10 * time.Second} })
	specs := []JobSpec{{N: n, Shape: "square-corner", Seed: 2}, {N: n, Shape: "1d-rectangle", Seed: 2}}
	for _, v := range runSpecs(t, s, specs) {
		rep, p := v.Report, v.Plan.Layout.P
		if rep.Timeline == nil || rep.Timeline.Len() == 0 {
			t.Fatalf("%s: the report has no Timeline", v.Plan.Shape)
		}
		if len(rep.PerRank) != p {
			t.Fatalf("%s: %d PerRank entries for %d ranks", v.Plan.Shape, len(rep.PerRank), p)
		}
		var flops float64
		for r, b := range rep.PerRank {
			if b.Rank != r {
				t.Errorf("%s: PerRank[%d] is rank %d", v.Plan.Shape, r, b.Rank)
			}
			flops += b.Flops
		}
		if want := 2.0 * n * n * n; flops != want {
			t.Errorf("%s: the ranks' flops sum to %v, want 2N³ = %v", v.Plan.Shape, flops, want)
		}
		if rep.ExecutionTime <= 0 || rep.ComputeTime > rep.ExecutionTime || rep.CommTime > rep.ExecutionTime {
			t.Errorf("%s: execution %v s, compute %v s, comm %v s: want 0 < compute, comm ≤ execution",
				v.Plan.Shape, rep.ExecutionTime, rep.ComputeTime, rep.CommTime)
		}
		if rep.OptimalityRatio != v.Plan.OptimalityRatio {
			t.Errorf("%s: optimality ratio %v, the plan's %v", v.Plan.Shape, rep.OptimalityRatio, v.Plan.OptimalityRatio)
		}
	}
}
