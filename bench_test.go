// Benchmark harness: one benchmark per table/figure of the paper plus the
// ablations called out in DESIGN.md. The paper-figure benchmarks report
// the simulated quantity (execution seconds, GFLOPS, energy) as custom
// metrics, so `go test -bench=.` regenerates the paper's numbers while
// also timing the harness itself.
package summagen

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/fpm"
	"repro/internal/hockney"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/netmpi"
	"repro/internal/obs"
	"repro/internal/partition"
)

// BenchmarkTable1Platform regenerates Table I: the modelled HCLServer1
// platform and its theoretical peak.
func BenchmarkTable1Platform(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		pl := device.HCLServer1()
		peak = pl.TheoreticalPeakGFLOPS()
	}
	b.ReportMetric(peak/1000, "peakTFLOPS")
}

// BenchmarkFig1ShapeConstruction regenerates Figure 1: the four shape
// layouts for the paper's 16×16 example.
func BenchmarkFig1ShapeConstruction(b *testing.B) {
	areas, err := balance.Proportional(16*16, []float64{1.0, 2.0, 0.9})
	if err != nil {
		b.Fatal(err)
	}
	var hp int
	for i := 0; i < b.N; i++ {
		hp = 0
		for _, shape := range partition.Shapes {
			l, err := partition.Build(shape, 16, areas)
			if err != nil {
				b.Fatal(err)
			}
			hp += l.TotalHalfPerimeter()
		}
	}
	b.ReportMetric(float64(hp), "sumHalfPerim")
}

// BenchmarkFig5SpeedFunctions regenerates the Figure 5 speed-function
// samples over the full profile range.
func BenchmarkFig5SpeedFunctions(b *testing.B) {
	sizes := device.ProfileSizes()
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig5(sizes)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.CombinedGflops, "combinedGFLOPS@max")
}

// Figures 6a-c: execution/computation/communication times of the four
// shapes under constant performance models, at the middle of the paper's
// range.
func BenchmarkFig6ExecutionTimeCPM(b *testing.B) {
	pl := device.ConstantHCLServer1()
	n := 30720
	areas, err := balance.Proportional(n*n, pl.Speeds(0))
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range partition.Shapes {
		b.Run(shape.String(), func(b *testing.B) {
			layout, err := partition.Build(shape, n, areas)
			if err != nil {
				b.Fatal(err)
			}
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep, err = core.Simulate(core.Config{Layout: layout, Platform: pl})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ExecutionTime, "simExecSec")
			b.ReportMetric(rep.ComputeTime, "simCompSec")
			b.ReportMetric(rep.CommTime, "simCommSec")
			b.ReportMetric(rep.GFLOPS, "simGFLOPS")
		})
	}
}

// Figures 7a-c: the same three series under non-constant FPMs with the
// load-imbalancing decomposition.
func BenchmarkFig7ExecutionTimeFPM(b *testing.B) {
	pl := device.HCLServer1()
	n := 16384
	models := make([]fpm.Model, pl.P())
	for i, d := range pl.Devices {
		models[i] = d.Speed
	}
	res, err := balance.LoadImbalance(n*n, models, n*n/256)
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range partition.Shapes {
		b.Run(shape.String(), func(b *testing.B) {
			layout, err := partition.Build(shape, n, res.Parts)
			if err != nil {
				b.Fatal(err)
			}
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep, err = core.Simulate(core.Config{Layout: layout, Platform: pl})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ExecutionTime, "simExecSec")
			b.ReportMetric(rep.CommTime, "simCommSec")
		})
	}
}

// Figure 8: dynamic energy of the four shapes (metered).
func BenchmarkFig8DynamicEnergy(b *testing.B) {
	pl := device.ConstantHCLServer1()
	n := 30720
	areas, err := balance.Proportional(n*n, pl.Speeds(0))
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range partition.Shapes {
		b.Run(shape.String(), func(b *testing.B) {
			layout, err := partition.Build(shape, n, areas)
			if err != nil {
				b.Fatal(err)
			}
			var dyn float64
			for i := 0; i < b.N; i++ {
				rep, err := core.Simulate(core.Config{Layout: layout, Platform: pl})
				if err != nil {
					b.Fatal(err)
				}
				meter := energy.NewWattsUpPro(rand.New(rand.NewSource(7)))
				meas, err := meter.Measure(pl, rep.Timeline)
				if err != nil {
					b.Fatal(err)
				}
				dyn = meas.DynamicJoules
			}
			b.ReportMetric(dyn/1000, "dynEnergyKJ")
		})
	}
}

// BenchmarkHeadline regenerates the paper's prose numbers (peak and
// average shares of the 2.5 TFLOPS machine peak).
func BenchmarkHeadline(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		rows, err := experiments.HeadlineSweep()
		if err != nil {
			b.Fatal(err)
		}
		h = experiments.ComputeHeadline(rows)
	}
	b.ReportMetric(h.PeakShare*100, "peakPct")
	b.ReportMetric(h.AvgShare*100, "avgPct")
	b.ReportMetric(h.AvgDiffPct, "avgShapeDiffPct")
}

// BenchmarkRealMultiplyShapes times real (non-simulated) SummaGen for each
// shape at a laptop-scale size.
func BenchmarkRealMultiplyShapes(b *testing.B) {
	n := 384
	areas, err := balance.Proportional(n*n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(n, n, rng)
	bb := matrix.Random(n, n, rng)
	for _, shape := range partition.Shapes {
		b.Run(shape.String(), func(b *testing.B) {
			layout, err := partition.Build(shape, n, areas)
			if err != nil {
				b.Fatal(err)
			}
			c := matrix.New(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Multiply(a, bb, c, core.Config{Layout: layout}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(blas.GemmFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// Ablation: binomial-tree vs flat broadcast cost model (DESIGN.md §5).
// With the paper's 3-processor shapes every communicator has ≤3 members
// and the two algorithms coincide, so the ablation uses a 16-processor
// column-based layout where communicators are wide enough to differ.
func BenchmarkAblationBcastTree(b *testing.B) {
	n := 30720
	devs := make([]*device.Device, 16)
	for i := range devs {
		devs[i] = &device.Device{
			Name: fmt.Sprintf("dev%d", i), PeakGFLOPS: 250,
			DynamicPowerW: 50, Speed: fpm.Constant{S: 230},
		}
	}
	pl := &device.Platform{Name: "grid16", Devices: devs, StaticPowerW: 230, Interconnect: hockney.IntraNode}
	areas, err := balance.Proportional(n*n, pl.Speeds(0))
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.ColumnBased(n, areas)
	if err != nil {
		b.Fatal(err)
	}
	for _, alg := range []struct {
		name string
		alg  hockney.BcastAlgorithm
	}{{"binomial", hockney.BcastBinomial}, {"flat", hockney.BcastFlat}} {
		b.Run(alg.name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep, err = core.Simulate(core.Config{Layout: layout, Platform: pl, BcastAlg: alg.alg})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.CommTime, "simCommSec")
		})
	}
}

// Ablation: proportional vs load-imbalancing partitioning on non-constant
// profiles.
func BenchmarkAblationPartitioner(b *testing.B) {
	pl := device.HCLServer1()
	n := 16384
	models := make([]fpm.Model, pl.P())
	for i, d := range pl.Devices {
		models[i] = d.Speed
	}
	prop, err := balance.Proportional(n*n, pl.Speeds(float64(n)*float64(n)/3))
	if err != nil {
		b.Fatal(err)
	}
	imb, err := balance.LoadImbalance(n*n, models, n*n/256)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		areas []int
	}{{"proportional", prop}, {"load-imbalance", imb.Parts}} {
		b.Run(tc.name, func(b *testing.B) {
			layout, err := partition.Build(partition.SquareRectangle, n, tc.areas)
			if err != nil {
				b.Fatal(err)
			}
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep, err = core.Simulate(core.Config{Layout: layout, Platform: pl})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.ExecutionTime, "simExecSec")
		})
	}
}

// BenchmarkSummaGen is the benchmark the bench-regression CI job gates on
// (scripts/bench-regression.sh, BENCH_baseline.json). Sub-benchmarks:
//
//   - obs=off / obs=on: the observability tax — the same real multiply with
//     span recording disabled (zero SpanHandle — must not allocate) and
//     enabled (fresh recorder per iteration, every stage and cell span
//     recorded).
//   - netmpi: the same multiply over the TCP runtime — one persistent
//     loopback mesh, b.N multiplies over it.
func BenchmarkSummaGen(b *testing.B) {
	n := 256
	areas, err := balance.Proportional(n*n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.Build(partition.SquareCorner, n, areas)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(n, n, rng)
	bb := matrix.Random(n, n, rng)

	b.Run("obs=off", func(b *testing.B) {
		c := matrix.New(n, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Multiply(a, bb, c, core.Config{Layout: layout}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("obs=on", func(b *testing.B) {
		c := matrix.New(n, n)
		b.ReportAllocs()
		b.ResetTimer()
		var spans int
		for i := 0; i < b.N; i++ {
			rec := obs.NewRecorder()
			root := rec.Root("job")
			if _, err := core.Multiply(a, bb, c, core.Config{Layout: layout, Span: root}); err != nil {
				b.Fatal(err)
			}
			root.End()
			spans = rec.Len()
		}
		b.ReportMetric(float64(spans), "spans/op")
	})

	b.Run("netmpi", func(b *testing.B) {
		const p = 3
		listeners := make([]net.Listener, p)
		addrs := make([]string, p)
		for r := range listeners {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			listeners[r] = ln
			addrs[r] = ln.Addr().String()
		}
		eps := make([]*netmpi.Endpoint, p)
		errs := make([]error, p)
		var wg sync.WaitGroup
		for r := 0; r < p; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				eps[rank], errs[rank] = netmpi.Dial(netmpi.Config{Rank: rank, Addrs: addrs, Listener: listeners[rank]})
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		defer func() {
			for _, ep := range eps {
				ep.Close()
			}
		}()
		// Per-rank inputs and outputs, allocated once: the mesh (and its
		// tag counters) persists across iterations, so each op times one
		// multiply, not a dial.
		as, bs, cs := make([]*matrix.Dense, p), make([]*matrix.Dense, p), make([]*matrix.Dense, p)
		for r := 0; r < p; r++ {
			as[r], bs[r], cs[r] = a.Clone(), bb.Clone(), matrix.New(n, n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var iwg sync.WaitGroup
			for r := 0; r < p; r++ {
				iwg.Add(1)
				go func(rank int) {
					defer iwg.Done()
					errs[rank] = core.RunRank(eps[rank].Proc(), core.Config{Layout: layout}, as[rank], bs[rank], cs[rank])
				}(r)
			}
			iwg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkObsDisabledHandle pins the disabled-path cost of the span layer
// itself: a full child/attr/end chain on a zero handle must be free.
func BenchmarkObsDisabledHandle(b *testing.B) {
	var h obs.SpanHandle
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := h.Child("stage").OnRank(1)
		sp.Int("i", int64(i)).Float("f", 1.5).Str("s", "x")
		sp.End()
	}
}

// --- Extension benchmarks (beyond the paper's figures) ---

// BenchmarkExtensionFiveShapes compares the paper's four shapes plus the
// L rectangle under CPM.
func BenchmarkExtensionFiveShapes(b *testing.B) {
	var rows []experiments.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtendedShapeStudy(30720)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].ExecTime, "lRectExecSec")
}

// BenchmarkExtensionNRRP compares the NRRP partitioner against the
// column-based heuristic on a strongly heterogeneous case.
func BenchmarkExtensionNRRP(b *testing.B) {
	n := 240
	areas, err := balance.Proportional(n*n, []float64{10, 1, 1})
	if err != nil {
		b.Fatal(err)
	}
	var nrHP, cbHP int
	for i := 0; i < b.N; i++ {
		nr, err := partition.NRRP(n, areas)
		if err != nil {
			b.Fatal(err)
		}
		cb, err := partition.ColumnBased(n, areas)
		if err != nil {
			b.Fatal(err)
		}
		nrHP, cbHP = nr.TotalHalfPerimeter(), cb.TotalHalfPerimeter()
	}
	b.ReportMetric(float64(nrHP), "nrrpHalfPerim")
	b.ReportMetric(float64(cbHP), "columnHalfPerim")
}

// BenchmarkExtensionPush runs the Push-Technique search from a random
// partition at N=16.
func BenchmarkExtensionPush(b *testing.B) {
	var st experiments.PushStudy
	for i := 0; i < b.N; i++ {
		var err error
		st, err = experiments.RunPushStudy(16, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.CanonicalVol), "canonicalVol")
	b.ReportMetric(float64(st.PushedRandVol), "pushedRandomVol")
}

// BenchmarkExtensionDVFSPareto computes the DVFS time/energy Pareto front
// for the PMM at N=30720.
func BenchmarkExtensionDVFSPareto(b *testing.B) {
	var front []energy.Choice
	for i := 0; i < b.N; i++ {
		var err error
		front, err = experiments.DVFSStudy(30720)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(front)), "paretoPoints")
	b.ReportMetric(front[len(front)-1].DynamicJoules/1000, "minEnergyKJ")
}

// BenchmarkDistributedTCP runs SummaGen over the TCP runtime (loopback,
// three endpoint goroutines) at a small size.
func BenchmarkDistributedTCP(b *testing.B) {
	n := 96
	areas, err := balance.Proportional(n*n, []float64{1, 2, 0.9})
	if err != nil {
		b.Fatal(err)
	}
	layout, err := partition.Build(partition.SquareCorner, n, areas)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(n, n, rng)
	bb := matrix.Random(n, n, rng)
	for i := 0; i < b.N; i++ {
		listeners := make([]net.Listener, 3)
		addrs := make([]string, 3)
		for r := range listeners {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			listeners[r] = ln
			addrs[r] = ln.Addr().String()
		}
		var wg sync.WaitGroup
		errs := make([]error, 3)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ep, err := netmpi.Dial(netmpi.Config{Rank: rank, Addrs: addrs, Listener: listeners[rank]})
				if err != nil {
					errs[rank] = err
					return
				}
				defer ep.Close()
				c := matrix.New(n, n)
				errs[rank] = core.RunRank(ep.Proc(), core.Config{Layout: layout}, a.Clone(), bb.Clone(), c)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtensionClusterScaling runs the 4-node cluster simulation with
// naive and topology-aware layouts.
func BenchmarkExtensionClusterScaling(b *testing.B) {
	rows, err := experiments.ClusterScaling([]int{32768}, 4, hockney.TenGbE)
	if err != nil {
		b.Fatal(err)
	}
	last := rows[len(rows)-1]
	for i := 0; i < b.N; i++ {
		rows, err = experiments.ClusterScaling([]int{32768}, 4, hockney.TenGbE)
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1]
	}
	b.ReportMetric(last.ExecTime, "naiveExecSec")
	b.ReportMetric(last.TopoExecTime, "topoExecSec")
	b.ReportMetric(last.Speedup, "naiveSpeedup")
}

// BenchmarkExtensionShapeThreshold runs the exact optimal-shape search at
// one heterogeneity point.
func BenchmarkExtensionShapeThreshold(b *testing.B) {
	var rows []experiments.ThresholdRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ShapeThreshold(60, []float64{10})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Volumes[0]), "sqCornerVol")
	b.ReportMetric(float64(rows[0].Volumes[2]), "blockRectVol")
}

// BenchmarkExtensionEnergyAware traces the distribution-level time/energy
// frontier on HCLServer1.
func BenchmarkExtensionEnergyAware(b *testing.B) {
	var front []balance.EnergyResult
	for i := 0; i < b.N; i++ {
		var err error
		front, err = experiments.EnergyAwareStudy(20480, 2.0, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(front[0].EnergyJ/1000, "timeOptimalKJ")
	b.ReportMetric(front[len(front)-1].EnergyJ/1000, "relaxedKJ")
}

// BenchmarkBlockCyclicBaseline compares the block-cyclic distribution
// (block size 32; the Elemental-style distribution of related work III-E)
// against plain blocked SUMMA's on the same grid, both run by the SummaGen
// engine. The engine does one broadcast and one DGEMM per grid cell, so
// the block-cyclic leg pays for its 144 cells. commKB is the blocked (SUMMA)
// layout's communication volume.
func BenchmarkBlockCyclicBaseline(b *testing.B) {
	n := 384
	rng := rand.New(rand.NewSource(11))
	a := matrix.Random(n, n, rng)
	bb := matrix.Random(n, n, rng)
	b.Run("block-cyclic-2x2", func(b *testing.B) {
		benchLayout(b, a, bb, func() (*partition.Layout, error) { return partition.BlockCyclic(n, 2, 2, n/32, n/32) })
	})
	b.Run("blocked-2x2", func(b *testing.B) {
		layout := benchLayout(b, a, bb, func() (*partition.Layout, error) { return partition.BlockCyclic(n, 2, 2, 2, 2) })
		elems := 0
		for _, v := range layout.CommVolumes() {
			elems += v
		}
		b.ReportMetric(float64(elems)*8/1024, "commKB")
	})
}

// benchLayout times core.Multiply on the layout build returns, and returns
// the layout.
func benchLayout(b *testing.B, a, bb *matrix.Dense, build func() (*partition.Layout, error)) *partition.Layout {
	layout, err := build()
	if err != nil {
		b.Fatal(err)
	}
	c := matrix.New(a.Rows, a.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Multiply(a, bb, c, core.Config{Layout: layout}); err != nil {
			b.Fatal(err)
		}
	}
	return layout
}

// BenchmarkMetricsHotPath measures the instrument operations the serving
// tier performs on every job — the metrics core must stay cheap enough to
// sit on the submit/done path. Gated on allocs/op in BENCH_baseline.json
// via cmd/benchguard: counter increments and histogram observes must not
// allocate, and nil (disabled) instruments must be free, matching the
// zero-SpanHandle discipline of the obs package.
func BenchmarkMetricsHotPath(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		reg := metrics.New()
		c := reg.Counter("bench_jobs_total")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		reg := metrics.New()
		h := reg.Histogram("bench_latency_seconds", []float64{0.01, 0.1, 1})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%100) / 100)
		}
	})
	b.Run("vec-with", func(b *testing.B) {
		reg := metrics.New()
		cv := reg.CounterVec("bench_by_tenant_total", "tenant")
		cv.With("alpha").Inc() // child exists; the loop measures lookup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cv.With("alpha").Inc()
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var c *metrics.Counter
		var h *metrics.Histogram
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(1)
		}
	})
	b.Run("sampler-tick", func(b *testing.B) {
		reg := metrics.New()
		cv := reg.CounterVec("bench_jobs_total", "tenant")
		hv := reg.HistogramVec("bench_latency_seconds", []float64{0.01, 0.1, 1}, "tenant")
		for _, tenant := range []string{"a", "b", "c", "d"} {
			cv.With(tenant).Add(10)
			hv.With(tenant).Observe(0.05)
		}
		store := metrics.NewStore(time.Minute, time.Second)
		s := metrics.NewSampler(reg, store, time.Second, nil)
		now := time.Unix(1_700_000_000, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Tick(now.Add(time.Duration(i) * time.Second))
		}
	})
}
