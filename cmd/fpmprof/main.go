// Command fpmprof builds functional performance models the way the paper
// does (Section VI: "the full functions are thus constructed using an
// automated procedure"): each workload size is timed repeatedly until the
// sample mean lies within the 95 % confidence interval at 2.5 % precision
// (Student's t-test), and the resulting discrete speed function is written
// as a loadable model file plus CSV.
//
// The timing source is either the real pure-Go DGEMM on this machine
// (-source real) or the modelled HCLServer1 devices with measurement noise
// (-source sim, the default — reproducing the paper's procedure without
// its hardware).
//
// Example:
//
//	fpmprof -source sim -device AbsGPU -max 16384 -out gpu.fpm.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/blas"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/matrix"
	"repro/internal/stats"
)

func main() {
	var (
		source  = flag.String("source", "sim", "timing source: sim|real")
		devName = flag.String("device", "AbsCPU", "simulated device: AbsCPU|AbsGPU|AbsXeonPhi")
		maxN    = flag.Int("max", 8192, "largest square problem size to profile")
		step    = flag.Int("step", 512, "profile step")
		out     = flag.String("out", "", "write the model JSON here (default stdout)")
		noise   = flag.Float64("noise", 0.01, "relative measurement noise for -source sim")
		seed    = flag.Int64("seed", 1, "noise seed")
	)
	flag.Parse()
	if err := run(*source, *devName, *maxN, *step, *out, *noise, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "fpmprof:", err)
		os.Exit(1)
	}
}

func run(source, devName string, maxN, step int, out string, noise float64, seed int64) error {
	if step < 1 || maxN < step {
		return fmt.Errorf("bad sweep: max=%d step=%d", maxN, step)
	}
	measure, err := measurer(source, devName, noise, seed)
	if err != nil {
		return err
	}
	proto := stats.DefaultProtocol()
	var pts []fpm.Point
	fmt.Fprintf(os.Stderr, "# %8s %14s %8s %10s\n", "N", "GFLOPS", "runs", "CI ±%")
	for n := step; n <= maxN; n += step {
		res, err := stats.MeasureUntil(proto, func() (float64, error) { return measure(n) })
		if err != nil {
			return err
		}
		flops := blas.GemmFlops(n, n, n)
		gflops := flops / res.Mean / 1e9
		pts = append(pts, fpm.Point{W: float64(n) * float64(n), S: gflops})
		fmt.Fprintf(os.Stderr, "# %8d %14.2f %8d %10.2f\n",
			n, gflops, len(res.Samples), 100*res.HalfWidth/res.Mean)
	}
	model, err := fpm.NewTable(pts)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := fpm.Save(w, model); err != nil {
		return err
	}
	// CSV companion on stdout when writing the model to a file.
	if out != "" {
		fmt.Println("n,gflops")
		for _, p := range pts {
			fmt.Printf("%.0f,%.2f\n", p.W, p.S)
		}
	}
	return nil
}

// measurer returns a function timing one n×n DGEMM.
func measurer(source, devName string, noise float64, seed int64) (func(n int) (float64, error), error) {
	switch source {
	case "real":
		return func(n int) (float64, error) {
			a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
			matrix.FillSeeded(int64(n), a, b)
			start := time.Now()
			if err := blas.Dgemm(n, n, n, 1, a.Data, n, b.Data, n, 0, c.Data, n); err != nil {
				return 0, err
			}
			return time.Since(start).Seconds(), nil
		}, nil
	case "sim":
		pl := device.HCLServer1()
		var dev *device.Device
		for _, d := range pl.Devices {
			if d.Name == devName {
				dev = d
			}
		}
		if dev == nil {
			return nil, fmt.Errorf("unknown device %q", devName)
		}
		rng := rand.New(rand.NewSource(seed))
		return func(n int) (float64, error) {
			area := float64(n) * float64(n)
			t := dev.ComputeTime(area, n)
			// Gaussian measurement noise, like a real timing run.
			t *= 1 + noise*rng.NormFloat64()
			if t <= 0 {
				t = 1e-9
			}
			return t, nil
		}, nil
	default:
		return nil, fmt.Errorf("unknown source %q (want sim or real)", source)
	}
}
