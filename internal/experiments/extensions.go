package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/fpm"
	"repro/internal/partition"
)

// Extension studies beyond the paper's evaluation: the fifth candidate
// shape, the NRRP partitioner, the Push-Technique search, and the DVFS
// energy/performance tradeoff the authors name as their current research.

// ExtendedShapeStudy runs the CPM comparison with the L-rectangle added as
// a fifth column, at one problem size.
func ExtendedShapeStudy(n int) ([]Row, error) {
	pl := device.ConstantHCLServer1()
	areas, err := balance.Proportional(n*n, pl.Speeds(0))
	if err != nil {
		return nil, err
	}
	var rows []Row
	for si, shape := range partition.ExtendedShapes {
		row, err := simulateShape(pl, shape, n, areas, int64(n)*40+int64(si))
		if err != nil {
			return nil, err
		}
		row.Regime = "cpm"
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExtendedShapes prints the five-shape comparison.
func RenderExtendedShapes(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("Extension — five-shape comparison (constant performance models)\n")
	fmt.Fprintf(&sb, "%-18s %12s %12s %12s %12s\n", "shape", "exec (s)", "comp (s)", "comm (s)", "GFLOPS")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18v %12.4f %12.4f %12.4f %12.1f\n",
			r.Shape, r.ExecTime, r.CompTime, r.CommTime, r.GFLOPS)
	}
	return sb.String()
}

// PartitionerComparison compares total half-perimeters (the theory
// thread's communication-volume objective) of column-based, NRRP, and the
// best of the paper's shapes, across heterogeneity ratios.
type PartitionerComparison struct {
	Ratio         float64
	ColumnBasedHP int
	NRRPHP        int
	BestShapeHP   int
	BestShape     partition.Shape
	// NRRPRatio is NRRP's realized half-perimeter over the lower bound —
	// comparable to the theoretical 2/√3 guarantee.
	NRRPRatio float64
}

// ComparePartitioners runs the comparison for three processors with speed
// vector {r, 1, 1} at the given N (ratio r sweeps heterogeneity).
func ComparePartitioners(n int, ratios []float64) ([]PartitionerComparison, error) {
	var out []PartitionerComparison
	for _, ratio := range ratios {
		speeds := []float64{ratio, 1, 1}
		areas, err := balance.Proportional(n*n, speeds)
		if err != nil {
			return nil, err
		}
		cb, err := partition.ColumnBased(n, areas)
		if err != nil {
			return nil, err
		}
		nr, err := partition.NRRP(n, areas)
		if err != nil {
			return nil, err
		}
		nrRatio, err := partition.OptimalityRatio(nr)
		if err != nil {
			return nil, err
		}
		row := PartitionerComparison{
			Ratio:         ratio,
			ColumnBasedHP: cb.TotalHalfPerimeter(),
			NRRPHP:        nr.TotalHalfPerimeter(),
			BestShapeHP:   1 << 30,
			NRRPRatio:     nrRatio,
		}
		for _, shape := range partition.ExtendedShapes {
			l, err := partition.Build(shape, n, areas)
			if err != nil {
				return nil, err
			}
			if hp := l.TotalHalfPerimeter(); hp < row.BestShapeHP {
				row.BestShapeHP = hp
				row.BestShape = shape
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderPartitioners prints the partitioner comparison.
func RenderPartitioners(rows []PartitionerComparison) string {
	var sb strings.Builder
	sb.WriteString("Extension — communication-volume proxy (total half-perimeter) by partitioner\n")
	fmt.Fprintf(&sb, "%8s %14s %10s %12s %20s\n", "ratio", "column-based", "NRRP", "NRRP/LB", "best shape")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8.1f %14d %10d %12.3f %10d (%v)\n",
			r.Ratio, r.ColumnBasedHP, r.NRRPHP, r.NRRPRatio, r.BestShapeHP, r.BestShape)
	}
	return sb.String()
}

// PushStudy runs the Push-Technique search from a random partition and
// from the square-corner shape, reporting both trajectories.
type PushStudy struct {
	N             int
	CanonicalVol  int
	PushedVol     int
	RandomVol     int
	PushedRandVol int
}

// RunPushStudy executes the study at grid size n with the paper's example
// area ratios.
func RunPushStudy(n int, seed int64) (PushStudy, error) {
	rng := rand.New(rand.NewSource(seed))
	areas, err := balance.Proportional(n*n, []float64{1.0, 2.0, 0.9})
	if err != nil {
		return PushStudy{}, err
	}
	l, err := partition.Build(partition.SquareCorner, n, areas)
	if err != nil {
		return PushStudy{}, err
	}
	canonical := partition.NewElementPartition(l)
	st := PushStudy{N: n, CanonicalVol: canonical.CommVolume()}
	res := partition.Push(canonical, 40, rng)
	st.PushedVol = res.FinalVolume
	randomEP, err := partition.RandomElementPartition(n, canonical.Areas(), rng)
	if err != nil {
		return PushStudy{}, err
	}
	rres := partition.Push(randomEP, 80, rng)
	st.RandomVol = rres.InitialVolume
	st.PushedRandVol = rres.FinalVolume
	return st, nil
}

// RenderPushStudy prints the push study.
func RenderPushStudy(st PushStudy) string {
	var sb strings.Builder
	sb.WriteString("Extension — Push Technique (DeFlumere et al.) at N=" + fmt.Sprint(st.N) + "\n")
	fmt.Fprintf(&sb, "square-corner volume:        %d\n", st.CanonicalVol)
	fmt.Fprintf(&sb, "after push:                  %d (canonical shapes are near-local-optima)\n", st.PushedVol)
	fmt.Fprintf(&sb, "random partition volume:     %d\n", st.RandomVol)
	fmt.Fprintf(&sb, "random after push:           %d\n", st.PushedRandVol)
	return sb.String()
}

// DVFSStudy computes the time/energy Pareto front of a PMM on HCLServer1
// with a four-point DVFS ladder per device.
func DVFSStudy(n int) ([]energy.Choice, error) {
	pl := device.ConstantHCLServer1()
	areas, err := balance.Proportional(n*n, pl.Speeds(0))
	if err != nil {
		return nil, err
	}
	layout, err := partition.Build(partition.SquareRectangle, n, areas)
	if err != nil {
		return nil, err
	}
	rep, err := core.Simulate(core.Config{Layout: layout, Platform: pl})
	if err != nil {
		return nil, err
	}
	ops := make([]energy.Operating, pl.P())
	for i, b := range rep.PerRank {
		ops[i] = energy.Operating{
			NominalSeconds: b.ComputeTime,
			Levels:         energy.DefaultLevels(pl.Devices[i].DynamicPowerW),
		}
	}
	return energy.ParetoFront(ops)
}

// RenderDVFS prints the Pareto front.
func RenderDVFS(front []energy.Choice, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — DVFS time/energy Pareto front for PMM at N=%d\n", n)
	fmt.Fprintf(&sb, "%12s %14s %s\n", "time (s)", "energy (kJ)", "levels (CPU,GPU,Phi)")
	for _, c := range front {
		fmt.Fprintf(&sb, "%12.3f %14.3f %v\n", c.TimeSeconds, c.DynamicJoules/1000, c.LevelIdx)
	}
	return sb.String()
}

// ThresholdRow is one point of the optimal-shape threshold sweep.
type ThresholdRow struct {
	// SpeedRatio is the fastest processor's speed relative to the two
	// unit-speed ones.
	SpeedRatio float64
	// Winner is the communication-volume-optimal shape family.
	Winner partition.Shape
	// Volumes per family (indexed like partition.ExtendedShapes; 0 when
	// the family cannot realize the areas).
	Volumes []int
}

// ShapeThreshold sweeps heterogeneity ratios and, for each, runs the exact
// candidate-shape search — reproducing the classical result that
// square-corner shapes overtake rectangular ones around ratio 3:1 (Becker
// & Lastovetsky [7], DeFlumere et al. [9]).
func ShapeThreshold(n int, ratios []float64) ([]ThresholdRow, error) {
	var rows []ThresholdRow
	for _, ratio := range ratios {
		areas, err := balance.Proportional(n*n, []float64{ratio, 1, 1})
		if err != nil {
			return nil, err
		}
		best, fams, err := partition.OptimalShape(n, areas, 0)
		if err != nil {
			return nil, err
		}
		row := ThresholdRow{SpeedRatio: ratio, Winner: best.Shape, Volumes: make([]int, len(partition.ExtendedShapes))}
		for _, c := range fams {
			for i, s := range partition.ExtendedShapes {
				if s == c.Shape {
					row.Volumes[i] = c.Volume
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderThreshold prints the threshold sweep.
func RenderThreshold(rows []ThresholdRow, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — exact optimal shape vs heterogeneity (N=%d, speeds {r,1,1})\n", n)
	fmt.Fprintf(&sb, "%8s", "ratio")
	for _, s := range partition.ExtendedShapes {
		fmt.Fprintf(&sb, " %17s", s)
	}
	fmt.Fprintf(&sb, " %18s\n", "winner")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8.1f", r.SpeedRatio)
		for _, v := range r.Volumes {
			if v == 0 {
				fmt.Fprintf(&sb, " %17s", "-")
			} else {
				fmt.Fprintf(&sb, " %17d", v)
			}
		}
		fmt.Fprintf(&sb, " %18v\n", r.Winner)
	}
	return sb.String()
}

// EnergyAwareStudy traces the time/energy frontier of *workload
// distribution* on HCLServer1 (reference [16]'s bi-objective setting): for
// deadlines between the time-optimal point and slack× that, the
// minimum-dynamic-energy distribution is computed over the devices' FPMs
// and power ratings.
func EnergyAwareStudy(n int, slack float64, steps int) ([]balance.EnergyResult, error) {
	pl := device.HCLServer1()
	models := make([]fpm.Model, pl.P())
	powers := make([]float64, pl.P())
	for i, d := range pl.Devices {
		// Time model in seconds for an area w: 2wN/(speed·1e9); fold the
		// constants into a derived model so balance sees plain time.
		models[i] = areaTimeModel{dev: d, n: n}
		powers[i] = d.DynamicPowerW
	}
	gran := n * n / 128
	if gran < 1 {
		gran = 1
	}
	return balance.EnergyParetoSweep(n*n, models, powers, slack, steps, gran)
}

// areaTimeModel adapts a device to a speed model in "areas per second"
// for the inner dimension n, so that fpm.Time(model, area) equals the
// device's kernel time.
type areaTimeModel struct {
	dev *device.Device
	n   int
}

// Speed implements fpm.Model: area/ComputeTime(area).
func (m areaTimeModel) Speed(area float64) float64 {
	if area <= 0 {
		return m.dev.GFLOPS(0) // irrelevant; Time() short-circuits at 0
	}
	t := m.dev.ComputeTime(area, m.n)
	if t <= 0 {
		return 0
	}
	return area / t
}

// RenderEnergyAware prints the distribution-level Pareto sweep.
func RenderEnergyAware(front []balance.EnergyResult, n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension — energy-aware workload distribution on HCLServer1 (N=%d)\n", n)
	fmt.Fprintf(&sb, "%12s %14s %30s\n", "time (s)", "energy (kJ)", "areas (CPU,GPU,Phi)")
	for _, r := range front {
		fmt.Fprintf(&sb, "%12.3f %14.3f %30v\n", r.Time, r.EnergyJ/1000, r.Parts)
	}
	return sb.String()
}

// ContentionRow compares partitioning with correct (co-run) profiles
// against partitioning with naive standalone profiles, both executed on
// the real co-run platform.
type ContentionRow struct {
	N              int
	CoRunExecTime  float64 // partitioned with co-run profiles (correct)
	NaiveExecTime  float64 // partitioned with standalone profiles
	PenaltyPercent float64
}

// ContentionStudy quantifies the cost of profiling devices standalone
// instead of under simultaneous load (the methodology point of [15] that
// the paper's measurement procedure implements).
func ContentionStudy(ns []int) ([]ContentionRow, error) {
	real := device.HCLServer1()
	naiveSrc := device.StandaloneHCLServer1()
	var rows []ContentionRow
	for _, n := range ns {
		exec := func(profileSource *device.Platform) (float64, error) {
			models := make([]fpm.Model, profileSource.P())
			for i, d := range profileSource.Devices {
				models[i] = d.Speed
			}
			areas, err := balance.FPMAreas(n, models)
			if err != nil {
				return 0, err
			}
			balance.Positive(areas)
			layout, err := partition.Build(partition.SquareRectangle, n, areas)
			if err != nil {
				return 0, err
			}
			// Execution always happens on the co-run platform: contention
			// is a property of the machine, not of the model used to
			// partition.
			rep, err := core.Simulate(core.Config{Layout: layout, Platform: real})
			if err != nil {
				return 0, err
			}
			return rep.ExecutionTime, nil
		}
		correct, err := exec(real)
		if err != nil {
			return nil, err
		}
		naive, err := exec(naiveSrc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ContentionRow{
			N:              n,
			CoRunExecTime:  correct,
			NaiveExecTime:  naive,
			PenaltyPercent: 100 * (naive - correct) / correct,
		})
	}
	return rows, nil
}

// RenderContention prints the contention study.
func RenderContention(rows []ContentionRow) string {
	var sb strings.Builder
	sb.WriteString("Extension — cost of standalone (non-simultaneous) profiling [15]\n")
	fmt.Fprintf(&sb, "%8s %16s %16s %10s\n", "N", "co-run prof (s)", "standalone (s)", "penalty")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%8d %16.3f %16.3f %9.1f%%\n",
			r.N, r.CoRunExecTime, r.NaiveExecTime, r.PenaltyPercent)
	}
	return sb.String()
}
