// Package summagen is an open-source implementation of SummaGen — parallel
// matrix-matrix multiplication (PMM) based on non-rectangular matrix
// partitions for heterogeneous HPC platforms (Patton, Khaleghzadeh,
// Manumachu, Lastovetsky; IPDPSW/HCW 2019).
//
// The package is the public facade over the internal substrates:
//
//   - partition layouts (the paper's subp/subph/subpw arrays) and the four
//     three-processor shapes proven communication-optimal under constant
//     speeds: square corner, square rectangle, block rectangle, and
//     traditional 1D rectangular;
//   - workload partitioning for constant performance models (proportional)
//     and non-smooth functional performance models (the load-imbalancing
//     algorithm);
//   - the SummaGen engine itself: real execution over an in-process
//     MPI-like runtime with a pure-Go DGEMM, and a simulator that walks
//     the same compiled schedule over modelled devices (the paper's
//     HCLServer1 platform is provided as a preset);
//   - energy accounting per the paper's WattsUp-meter methodology.
//
// Quick start:
//
//	n := 256
//	areas, _ := summagen.AreasCPM(n, []float64{1.0, 2.0, 0.9})
//	layout, _ := summagen.NewLayout(summagen.SquareCorner, n, areas)
//	a, b := summagen.RandomMatrix(n, 1), summagen.RandomMatrix(n, 2)
//	c := summagen.NewMatrix(n, n)
//	report, _ := summagen.Multiply(a, b, c, summagen.Config{Layout: layout})
//	fmt.Printf("%.3f GFLOPS\n", report.GFLOPS)
package summagen

import (
	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// Matrix is a dense row-major matrix.
type Matrix = matrix.Dense

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.New(rows, cols) }

// RandomMatrix returns an n×n matrix with entries in [-1,1) from the
// seeded operand stream (matrix.FillSeeded): the A of the service's job for
// (n, seed).
func RandomMatrix(n int, seed int64) *Matrix {
	m := matrix.New(n, n)
	matrix.FillSeeded(seed, m)
	return m
}

// Shape enumerates the paper's four partition shapes.
type Shape = partition.Shape

// The four shapes of the paper (Figure 1), plus the L rectangle from
// DeFlumere et al.'s six candidate shapes.
const (
	SquareCorner    = partition.SquareCorner
	SquareRectangle = partition.SquareRectangle
	BlockRectangle  = partition.BlockRectangle
	OneDRectangle   = partition.OneDRectangle
	LRectangle      = partition.LRectangle
)

// Shapes lists the paper's four shapes; ExtendedShapes adds the
// L rectangle.
var (
	Shapes         = partition.Shapes
	ExtendedShapes = partition.ExtendedShapes
)

// NRRPLayout builds a non-rectangular recursive partitioning (Beaumont et
// al.'s NRRP) for an arbitrary number of processors.
func NRRPLayout(n int, areas []int) (*Layout, error) {
	return partition.NRRP(n, areas)
}

// ParseShape resolves a shape from its name ("square-corner",
// "square-rectangle", "block-rectangle", "1d-rectangle", "l-rectangle"),
// case-insensitively. An unknown name yields a
// *partition.UnknownShapeError listing the valid names.
func ParseShape(name string) (Shape, error) { return partition.ParseShape(name) }

// Layout is a matrix partitioning: the paper's
// {subp, subph, subpw, subplda, subpldb} arrays.
type Layout = partition.Layout

// NewLayout builds the layout of one of the four shapes for three
// processors with the given target areas (areas[i] is rank i's workload;
// they must sum to n²).
func NewLayout(shape Shape, n int, areas []int) (*Layout, error) {
	return partition.Build(shape, n, areas)
}

// LayoutFromArrays builds a layout directly from the paper's input arrays.
func LayoutFromArrays(n, p, subplda, subpldb int, subp, subph, subpw []int) (*Layout, error) {
	return partition.FromArrays(n, p, subplda, subpldb, subp, subph, subpw)
}

// ColumnBasedLayout builds a column-based rectangular layout for an
// arbitrary number of processors (Beaumont et al.'s heuristic), extending
// the library beyond the paper's three-processor shapes.
func ColumnBasedLayout(n int, areas []int) (*Layout, error) {
	return partition.ColumnBased(n, areas)
}

// SpeedModel is a functional performance model: speed as a function of
// workload size.
type SpeedModel = fpm.Model

// ConstantSpeed is a constant performance model.
type ConstantSpeed = fpm.Constant

// AreasCPM partitions the n² workload proportionally to constant speeds —
// Step 1 of every shape construction under constant performance models.
func AreasCPM(n int, speeds []float64) ([]int, error) {
	return balance.Proportional(n*n, speeds)
}

// AreasFPM partitions the n² workload with the load-imbalancing algorithm
// over (possibly non-smooth) functional performance models; granularity
// controls the discretization (0 picks n²/256).
func AreasFPM(n int, models []SpeedModel, granularity int) ([]int, error) {
	if granularity <= 0 {
		return balance.FPMAreas(n, models)
	}
	res, err := balance.LoadImbalance(n*n, models, granularity)
	if err != nil {
		return nil, err
	}
	return res.Parts, nil
}

// Device models one abstract processor; Platform is a set of them.
type (
	Device   = device.Device
	Platform = device.Platform
)

// HCLServer1 returns the modelled experimental platform of the paper
// (Table I): AbsCPU, AbsGPU (Nvidia K40c), AbsXeonPhi (Xeon Phi 3120P),
// with synthetic speed functions calibrated to Figure 5.
func HCLServer1() *Platform { return device.HCLServer1() }

// ConstantHCLServer1 returns HCLServer1 with constant performance models
// anchored at the plateau speeds (relative {1.0, 2.0, 0.9}).
func ConstantHCLServer1() *Platform { return device.ConstantHCLServer1() }

// HCLServer2 returns a second modelled platform with four abstract
// processors (CPU + two GPUs + a many-core card) for experiments beyond
// the paper's three-processor shapes.
func HCLServer2() *Platform { return device.HCLServer2() }

// Config parameterizes a SummaGen execution; Report carries the results.
type (
	Config = core.Config
	Report = core.Report
)

// Multiply computes C = A·B with SummaGen, really executing the numerics
// over the in-process runtime. C is overwritten.
func Multiply(a, b, c *Matrix, cfg Config) (*Report, error) {
	return core.Multiply(a, b, c, cfg)
}

// OptimalShape runs the exact candidate-shape search for three
// processors: every integer parameter choice of every shape family whose
// realized areas stay within tol of the targets is enumerated, and the
// minimum-communication-volume candidate is returned (reference [12]'s
// exact algorithm).
func OptimalShape(n int, areas []int, tol int) (partition.Candidate, []partition.Candidate, error) {
	return partition.OptimalShape(n, areas, tol)
}

// HalfPerimeterLowerBound and OptimalityRatio score layouts against the
// communication-volume lower bound the approximation literature uses.
func HalfPerimeterLowerBound(areas []int) (float64, error) {
	return partition.HalfPerimeterLowerBound(areas)
}

// OptimalityRatio returns a layout's total half-perimeter over the lower
// bound (≥ 1; smaller is better).
func OptimalityRatio(l *Layout) (float64, error) {
	return partition.OptimalityRatio(l)
}

// MemoryEstimate returns the bytes rank needs to execute SummaGen under
// the layout (working matrices plus owned partitions); CheckMemory
// validates a whole platform, reproducing the paper's out-of-core
// threshold.
func MemoryEstimate(l *Layout, rank int) int64 { return core.MemoryEstimate(l, rank) }

// CheckMemory verifies every rank's memory estimate fits its device.
func CheckMemory(l *Layout, pl *Platform) error {
	return core.CheckMemory(l, pl)
}

// Simulate walks the full SummaGen communication and compute schedule over
// cfg.Platform without performing numerics, charging each rank's
// broadcasts by the Hockney model and its DGEMMs by its device's speed —
// this is how the paper-scale experiments (N up to ~38k) are reproduced.
func Simulate(cfg Config) (*Report, error) {
	return core.Simulate(cfg)
}
