// Command summagen runs one parallel matrix-matrix multiplication with a
// chosen partition shape, in real or simulated mode.
//
// Examples:
//
//	summagen -n 512 -shape square-corner -verify          # real numerics
//	summagen -n 25600 -shape 1d-rectangle -mode sim       # paper-scale simulation
//	summagen -n 8192 -mode sim -fpm                       # FPM load-imbalancing split
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"

	"math/rand"
)

func main() {
	var (
		n         = flag.Int("n", 512, "matrix dimension N")
		shapeName = flag.String("shape", "square-corner", "partition shape: square-corner|square-rectangle|block-rectangle|1d-rectangle")
		mode      = flag.String("mode", "real", "execution mode: real|sim")
		speedsArg = flag.String("speeds", "1.0,2.0,0.9", "constant relative speeds (comma separated)")
		useFPM    = flag.Bool("fpm", false, "partition with the FPM load-imbalancing algorithm (HCLServer1 profiles)")
		verify    = flag.Bool("verify", false, "check the result against a serial reference (real mode)")
		seed      = flag.Int64("seed", 1, "matrix random seed")
		showRanks = flag.Bool("ranks", false, "print the per-rank breakdown")
		showGrid  = flag.Bool("grid", false, "render the partition layout")
		repeat    = flag.Bool("repeat", false, "repeat until the mean execution time is within the paper's 95% CI / 2.5% precision (Student's t-test)")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		jsonOut   = flag.Bool("json", false, "print the report as JSON (the same serialization summagen-node and summagen-serve emit) instead of text")
	)
	flag.Parse()
	if err := run(*n, *shapeName, *mode, *speedsArg, *useFPM, *verify, *seed, *showRanks, *showGrid, *repeat, *traceOut, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "summagen:", err)
		os.Exit(1)
	}
}

func parseSpeeds(arg string) ([]float64, error) {
	parts := strings.Split(arg, ",")
	speeds := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad speed %q: %w", p, err)
		}
		speeds = append(speeds, v)
	}
	return speeds, nil
}

func run(n int, shapeName, mode, speedsArg string, useFPM, verify bool, seed int64, showRanks, showGrid, repeat bool, traceOut string, jsonOut bool) error {
	shape, err := partition.ParseShape(shapeName)
	if err != nil {
		return err
	}
	pl := device.HCLServer1()
	var areas []int
	if useFPM {
		models := make([]fpm.Model, pl.P())
		for i, d := range pl.Devices {
			models[i] = d.Speed
		}
		gran := n * n / 256
		if gran < 1 {
			gran = 1
		}
		res, err := balance.LoadImbalance(n*n, models, gran)
		if err != nil {
			return err
		}
		areas = res.Parts
		for i := range areas {
			if areas[i] == 0 {
				areas[i] = 1
				areas[maxIndex(areas)]--
			}
		}
	} else {
		speeds, err := parseSpeeds(speedsArg)
		if err != nil {
			return err
		}
		areas, err = balance.Proportional(n*n, speeds)
		if err != nil {
			return err
		}
	}
	layout, err := partition.Build(shape, n, areas)
	if err != nil {
		return err
	}
	if showGrid {
		fmt.Printf("layout (%dx%d grid, areas %v):\n%s\n", layout.GridRows, layout.GridCols, layout.Areas(), layout.Render(32))
	}

	var rep *core.Report
	var rec *obs.Recorder
	switch mode {
	case "sim":
		rep, err = core.Simulate(core.Config{Layout: layout, Platform: pl})
		if err != nil {
			return err
		}
	case "real":
		rng := rand.New(rand.NewSource(seed))
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		c := matrix.New(n, n)
		// Record stage spans: a one-shot CLI run affords the recorder, and
		// it buys the per-rank imbalance report plus span lanes in -trace.
		rec = obs.NewRecorder()
		root := rec.Root("multiply").Int("n", int64(n))
		rep, err = core.Multiply(a, b, c, core.Config{Layout: layout, Span: root})
		root.End()
		if err != nil {
			return err
		}
		rep.Imbalance = obs.AnalyzeStageSpans(rec.Spans())
		if verify {
			want := matrix.New(n, n)
			if err := blas.Dgemm(n, n, n, 1, a.Data, a.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
				return err
			}
			if !matrix.EqualApprox(c, want, 1e-9) {
				return fmt.Errorf("verification FAILED: max diff %g", matrix.MaxAbsDiff(c, want))
			}
			fmt.Println("verification: OK")
		}
	default:
		return fmt.Errorf("unknown mode %q (want real or sim)", mode)
	}

	if repeat && mode == "real" {
		// The paper's measurement protocol: re-execute until the sample
		// mean lies in the 95 % confidence interval with 2.5 % precision.
		rng := rand.New(rand.NewSource(seed))
		a := matrix.Random(n, n, rng)
		b := matrix.Random(n, n, rng)
		c := matrix.New(n, n)
		res, err := stats.MeasureUntil(stats.DefaultProtocol(), func() (float64, error) {
			r, err := core.Multiply(a, b, c, core.Config{Layout: layout})
			if err != nil {
				return 0, err
			}
			return r.ExecutionTime, nil
		})
		if err != nil {
			return err
		}
		out := os.Stdout
		if jsonOut {
			out = os.Stderr
		}
		fmt.Fprintf(out, "protocol: %d runs, mean %.6f s ± %.6f (95%% CI), converged=%v\n",
			len(res.Samples), res.Mean, res.HalfWidth, res.Converged)
	}

	rep.Shape = shape.String()
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("shape=%v N=%d mode=%s\n", shape, n, mode)
		fmt.Printf("execution time:     %.6f s\n", rep.ExecutionTime)
		fmt.Printf("computation time:   %.6f s (max over ranks)\n", rep.ComputeTime)
		fmt.Printf("communication time: %.6f s (max over ranks)\n", rep.CommTime)
		fmt.Printf("performance:        %.1f GFLOPS\n", rep.GFLOPS)
		if rep.DynamicEnergyJ > 0 {
			fmt.Printf("dynamic energy:     %.1f J\n", rep.DynamicEnergyJ)
		}
		if rep.Imbalance != nil && rep.Imbalance.ImbalanceRatio > 0 {
			fmt.Printf("load imbalance:     %.3f (max/mean dgemm stage, slowest rank %d)\n",
				rep.Imbalance.ImbalanceRatio, rep.Imbalance.SlowestRank)
		}
		if showRanks {
			fmt.Print(trace.Render(rep.PerRank))
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if rec != nil {
			// Merged export: stage spans (pid 1, one thread per rank) next
			// to the engine timeline lane (pid 2), on one clock.
			err = obs.WriteChromeTrace(f, rec, rep.Timeline, 0)
		} else {
			err = trace.WriteChromeTrace(f, rep.Timeline)
		}
		if err != nil {
			return err
		}
		// Keep stdout clean for -json consumers piping the report.
		fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing or Perfetto)\n", traceOut)
	}
	return nil
}

func maxIndex(xs []int) int {
	m := 0
	for i, x := range xs {
		if x > xs[m] {
			m = i
		}
	}
	return m
}
