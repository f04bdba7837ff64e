package core

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/hockney"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// TestSimulationPredictsRealRun validates the modelling stack end to end:
// device speeds are calibrated from a real run's per-rank measurements,
// a platform is built from them, and the simulator's predicted execution
// time is compared against the real wall clock. This is the discipline
// that makes the paper-scale simulated figures trustworthy: given correct
// kernel speeds, the communication schedule and cost model must reproduce
// the whole.
func TestSimulationPredictsRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	n := 512
	areas, err := balance.Proportional(n*n, []float64{1, 2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := partition.Build(partition.SquareCorner, n, areas)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	c := matrix.New(n, n)

	// Warm up (page faults, scheduler), then measure the real run.
	if _, err := Multiply(a, b, c, Config{Layout: layout}); err != nil {
		t.Fatal(err)
	}
	// Take the fastest of a few runs as the least-noisy estimate.
	var real *Report
	for i := 0; i < 3; i++ {
		rep, err := Multiply(a, b, c, Config{Layout: layout})
		if err != nil {
			t.Fatal(err)
		}
		if real == nil || rep.ExecutionTime < real.ExecutionTime {
			real = rep
		}
	}

	// Calibrate: per-rank achieved GFLOPS from the real run's compute
	// breakdowns.
	devs := make([]*device.Device, 3)
	for r, bd := range real.PerRank {
		gflops := bd.Flops / bd.ComputeTime / 1e9
		devs[r] = &device.Device{
			Name:       "calibrated",
			PeakGFLOPS: gflops,
			Speed:      fpm.Constant{S: gflops},
		}
	}
	// Communication: this machine's goroutine "link" is far faster than
	// a real network; calibrate β from the real run too (bytes/time).
	commBytes, commSecs := 0, 0.0
	for _, bd := range real.PerRank {
		commBytes += bd.BytesMoved
		commSecs += bd.CommTime
	}
	link := hockney.IntraNode
	if commBytes > 0 && commSecs > 0 {
		link = hockney.FromBandwidth(1e-7, float64(commBytes)/commSecs)
	}
	pl := &device.Platform{Name: "local", Devices: devs, Interconnect: link}

	sim, err := Simulate(Config{Layout: layout, Platform: pl})
	if err != nil {
		t.Fatal(err)
	}
	ratio := sim.ExecutionTime / real.ExecutionTime
	t.Logf("real %.4fs vs simulated %.4fs (ratio %.2f)", real.ExecutionTime, sim.ExecutionTime, ratio)
	// Generous bounds: wall-clock noise on shared CI machines is real,
	// but an order-of-magnitude disagreement would mean the schedule or
	// cost accounting is wrong.
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("simulation does not predict reality: real %.4fs, simulated %.4fs",
			real.ExecutionTime, sim.ExecutionTime)
	}
	// Computation time, which dominates, must agree more tightly.
	compRatio := sim.ComputeTime / real.ComputeTime
	if compRatio < 0.5 || compRatio > 2 {
		t.Fatalf("calibrated compute mismatch: real %.4fs, simulated %.4fs",
			real.ComputeTime, sim.ComputeTime)
	}
}

// TestSimulatedFlopsConservation: the simulated run must account exactly
// 2N³ flops across ranks regardless of shape — no work lost or duplicated
// by the per-sub-partition computation rule.
func TestSimulatedFlopsConservation(t *testing.T) {
	n := 768
	pl := testPlatform(3)
	for _, shape := range partition.ExtendedShapes {
		areas, err := balance.Proportional(n*n, []float64{1, 2, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		layout, err := partition.Build(shape, n, areas)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Simulate(Config{Layout: layout, Platform: pl})
		if err != nil {
			t.Fatal(err)
		}
		var flops float64
		for _, bd := range rep.PerRank {
			flops += bd.Flops
		}
		if want := blas.GemmFlops(n, n, n); flops != want {
			t.Fatalf("%v: %v flops accounted, want %v", shape, flops, want)
		}
	}
}

// TestMultiplyOnValidatesRanks: MultiplyOn refuses to run without ranks, or
// with a rank of a runtime whose size is not the layout's, instead of
// indexing the schedule out of range.
func TestMultiplyOnValidatesRanks(t *testing.T) {
	const n = 32
	l := buildLayout(t, partition.SquareCorner, n, benchSpeeds)
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	for name, procs := range map[string][]Proc{
		"no ranks":         nil,
		"a smaller world":  shmWorld(2),
		"a larger world":   shmWorld(4)[3:],
		"a rank past size": {&shmRank{rank: 3, size: 3}},
	} {
		if _, err := MultiplyOn(procs, a, b, c, Config{Layout: l}); err == nil {
			t.Errorf("%s: MultiplyOn accepted it", name)
		}
	}
}
