// Package core implements SummaGen — the paper's parallel matrix-matrix
// multiplication for arbitrary grid-aligned (including non-rectangular)
// partitions on heterogeneous platforms.
//
// Like SUMMA, the algorithm has three stages (Section IV):
//
//  1. Horizontal communications of A: within each sub-partition row, the
//     owner of every run of adjacent cells it owns broadcasts the run as one
//     panel over the row communicator; each participating rank accumulates
//     the full row into its working matrix WA. A row fully owned by one
//     rank is copied locally with no communication (the paper's special
//     case).
//  2. Vertical communications of B: symmetric over column communicators
//     into WB.
//  3. Local computations: per owned rectangle of size h×w — adjacent owned
//     cells fused into one block — one DGEMM of (h×N)·(N×w) from WA/WB into
//     the rank's C. A rectangle holds only owned cells, so this keeps the
//     paper's rule: computing per sub-partition avoids the
//     redundant-computation hazard it describes for non-rectangular
//     partitions.
//
// Every rank runs the three stages back to back on its own goroutine, in
// both modes and on every runtime: one schedule, no helper goroutines.
//
// The engine runs in two modes. RealMode executes the numerics with the
// pure-Go BLAS over the in-process MPI runtime, producing a verified C.
// SimulatedMode runs the identical communication and scheduling code with
// virtual clocks: computation advances rank clocks by workload/FPM-speed
// for the platform's devices and communications by the Hockney model, so
// paper-scale problems (N ≈ 38k) run in milliseconds.
//
// Stages 1 and 2 are one routine (assembleBands) run over an axis, and they
// move each element once per receiving rank: a run's owner hands the
// runtime its view of A or B, every member its view of WA or WB
// (Comm.BcastPanel), and nothing is packed, cloned or unpacked on the
// engine's side. WA and WB are recycled through the process-wide slab free
// list (internal/slab), un-zeroed — a steady-state multiply allocates nothing
// that grows with N² — and go back to it whenever the rank returns, since
// only the rank's own goroutine ever writes them. A and B are read-only to
// the engine, and the caller must not write them while a multiply runs: the
// in-process runtime lets receivers copy out of the owner's memory after the
// owner has moved on.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blas"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/hockney"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/slab"
	"repro/internal/trace"
)

// Mode selects real execution or virtual-time simulation.
type Mode int

const (
	// RealMode multiplies actual matrices; times are wall-clock.
	RealMode Mode = iota
	// SimulatedMode skips numerics; times come from device FPMs and the
	// Hockney model.
	SimulatedMode
)

// Config parameterizes one SummaGen execution.
type Config struct {
	// Layout describes the partitioning (required).
	Layout *partition.Layout
	// Mode selects real or simulated execution.
	Mode Mode
	// Platform supplies device models; required in SimulatedMode, and
	// used for energy accounting in both modes when present.
	Platform *device.Platform
	// Kernel selects the local DGEMM kernel in RealMode.
	Kernel blas.Kernel
	// Link overrides the inter-rank link; zero value uses the platform's
	// interconnect or hockney.IntraNode.
	Link hockney.Link
	// LinkFor optionally supplies per-pair links (hierarchical
	// platforms; see internal/cluster). Overrides Link where set.
	LinkFor func(a, b int) hockney.Link
	// BcastAlg selects the modelled broadcast algorithm.
	BcastAlg hockney.BcastAlgorithm
	// Checkpoint, when non-nil in RealMode, makes the compute stage
	// resumable: each owned cell is looked up before the DGEMMs (a cell
	// fully covered by checkpointed data is restored, never recomputed)
	// and saved after the DGEMM of its rectangle — the engine half of
	// survivor-replan recovery (internal/recover).
	Checkpoint Checkpointer
	// Span, when enabled, is the parent under which the engine records
	// per-rank stage spans (bcastA, bcastB, dgemm), per-rectangle DGEMM
	// spans and per-cell checkpoint restore/save spans. The zero value
	// disables span recording at no cost (see internal/obs).
	Span obs.SpanHandle
	// DisableOverlap has no effect: every rank runs the one sequential
	// bcastA → bcastB → dgemm schedule. The field remains only so that
	// existing callers keep compiling.
	DisableOverlap bool
}

// Report summarizes one execution; the fields map one-to-one to the
// quantities plotted in the paper's figures. Reports marshal to JSON with
// the tagged field names below — the one serialization shared by
// cmd/summagen (in-process and rank mode) and the serving API (the
// Timeline is excluded; fetch it separately as a Chrome trace).
type Report struct {
	// N is the matrix dimension.
	N int `json:"n"`
	// Shape names the partition shape the layout was built from, when the
	// caller knows it ("" otherwise) — the engine itself only sees the
	// layout arrays.
	Shape string `json:"shape,omitempty"`
	// ExecutionTime is the parallel execution time in seconds (max rank
	// finish) — Figures 6a/7a.
	ExecutionTime float64 `json:"execution_time_s"`
	// ComputeTime is the maximum over ranks of computation time —
	// Figures 6b/7b.
	ComputeTime float64 `json:"compute_time_s"`
	// CommTime is the maximum over ranks of MPI communication time —
	// Figures 6c/7c.
	CommTime float64 `json:"comm_time_s"`
	// GFLOPS is 2N³ / ExecutionTime / 1e9.
	GFLOPS float64 `json:"gflops"`
	// DynamicEnergyJ is the dynamic energy (exact integral of device
	// power over busy intervals); zero when no platform is configured —
	// Figure 8.
	DynamicEnergyJ float64 `json:"dynamic_energy_j,omitempty"`
	// OptimalityRatio scores the layout's total half-perimeter against
	// the communication-volume lower bound (≥ 1; smaller is better).
	OptimalityRatio float64 `json:"optimality_ratio,omitempty"`
	// PerRank holds the per-rank breakdowns.
	PerRank []trace.Breakdown `json:"per_rank"`
	// Timeline is the full event trace. It is deliberately not part of
	// the JSON form: traces are large and have their own Chrome-trace
	// serialization (internal/trace).
	Timeline *trace.Timeline `json:"-"`
	// Imbalance is the per-rank stage breakdown and load-imbalance ratio
	// derived from recorded spans (max/mean dgemm stage time — the
	// figure of merit the paper's FPM partitions drive to 1.0); nil when
	// observability is off.
	Imbalance *obs.ImbalanceReport `json:"imbalance,omitempty"`
	// RemoteTraces holds the per-rank span trees shipped to rank 0 after
	// a distributed run, clock-offset annotated, for the merged Chrome
	// export. Excluded from JSON for the same reason as Timeline.
	RemoteTraces []obs.RemoteTrace `json:"-"`
}

func (c *Config) link() hockney.Link {
	if c.Link != (hockney.Link{}) {
		return c.Link
	}
	if c.Platform != nil && c.Platform.Interconnect != (hockney.Link{}) {
		return c.Platform.Interconnect
	}
	return hockney.IntraNode
}

func (c *Config) validate() error {
	if c.Layout == nil {
		return errors.New("core: Config.Layout is required")
	}
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.Mode == SimulatedMode {
		if c.Platform == nil {
			return errors.New("core: SimulatedMode requires a Platform")
		}
	}
	if c.Platform != nil {
		if err := c.Platform.Validate(); err != nil {
			return err
		}
		if c.Platform.P() != c.Layout.P {
			return fmt.Errorf("core: platform has %d devices but layout has %d processors",
				c.Platform.P(), c.Layout.P)
		}
	}
	return nil
}

// Multiply computes C = A·B with SummaGen in RealMode. A, B and C must be
// N×N with N = cfg.Layout.N; C is overwritten. The returned report carries
// the timing breakdowns.
func Multiply(a, b, c *matrix.Dense, cfg Config) (*Report, error) {
	cfg.Mode = RealMode
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.Layout.N
	for _, m := range []*matrix.Dense{a, b, c} {
		if m == nil || m.Rows != n || m.Cols != n {
			return nil, fmt.Errorf("core: matrices must be %dx%d", n, n)
		}
	}
	return execute(&cfg, a, b, c)
}

// Simulate runs SummaGen in SimulatedMode over the configured platform:
// the full communication schedule executes on virtual clocks and no
// numerics are performed.
func Simulate(cfg Config) (*Report, error) {
	cfg.Mode = SimulatedMode
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return execute(&cfg, nil, nil, nil)
}

func execute(cfg *Config, a, b, c *matrix.Dense) (*Report, error) {
	l := cfg.Layout
	tl := trace.New()
	mode := mpi.RealTime
	if cfg.Mode == SimulatedMode {
		mode = mpi.VirtualTime
	}
	world, err := mpi.NewWorld(mpi.Config{
		Procs:    l.P,
		Mode:     mode,
		Link:     cfg.link(),
		LinkFor:  cfg.LinkFor,
		BcastAlg: cfg.BcastAlg,
		Timeline: tl,
	})
	if err != nil {
		return nil, err
	}
	rt := mpiRuntime{world}
	if err := rt.Run(func(p Proc) error {
		return rankMain(p, cfg, a, b, c)
	}); err != nil {
		return nil, err
	}
	return buildReport(cfg, tl)
}

// workingSet holds a rank's per-stage geometry.
type workingSet struct {
	// rowOff maps grid row -> row offset in WA (or -1 when not needed).
	rowOff []int
	// colOff maps grid col -> column offset in WB (or -1).
	colOff []int
	waRows int
	wbCols int
}

func buildWorkingSet(l *partition.Layout, rank int) *workingSet {
	ws := &workingSet{
		rowOff: make([]int, l.GridRows),
		colOff: make([]int, l.GridCols),
	}
	for i := 0; i < l.GridRows; i++ {
		if l.OwnsInRow(rank, i) {
			ws.rowOff[i] = ws.waRows
			ws.waRows += l.RowHeights[i]
		} else {
			ws.rowOff[i] = -1
		}
	}
	for j := 0; j < l.GridCols; j++ {
		if l.OwnsInCol(rank, j) {
			ws.colOff[j] = ws.wbCols
			ws.wbCols += l.ColWidths[j]
		} else {
			ws.colOff[j] = -1
		}
	}
	return ws
}

// rankMain runs one rank's three stages back to back on the calling
// goroutine.
func rankMain(p Proc, cfg *Config, a, b, c *matrix.Dense) error {
	l := cfg.Layout
	ws := buildWorkingSet(l, p.Rank())
	var wa, wb *matrix.Dense
	if cfg.Mode == RealMode {
		// WA and WB come from the slab free list un-zeroed. Only this
		// goroutine writes them (a runtime's receivers copy into their own
		// buffers), so they go back however the rank returns.
		sa, sb := slab.Get(ws.waRows*l.N), slab.Get(l.N*ws.wbCols)
		defer slab.Put(sa)
		defer slab.Put(sb)
		wa = &matrix.Dense{Rows: ws.waRows, Cols: l.N, Stride: l.N, Data: sa}
		wb = &matrix.Dense{Rows: l.N, Cols: ws.wbCols, Stride: ws.wbCols, Data: sb}
	}
	if err := commStage(p, cfg, ws, axisA, a, wa); err != nil {
		return err
	}
	if err := commStage(p, cfg, ws, axisB, b, wb); err != nil {
		return err
	}
	sp := cfg.Span.Child("dgemm").OnRank(p.Rank())
	if err := localCompute(p, cfg, ws, wa, wb, c, sp); err != nil {
		sp.Str("error", err.Error()).End()
		return fmt.Errorf("compute stage: %w", err)
	}
	sp.End()
	return nil
}

// axis selects the operand a communication stage assembles. Stage 1 (A
// into WA along grid rows) and stage 2 (B into WB along grid columns) are
// the same loop with rows and columns exchanged.
type axis int

const (
	axisA axis = iota // horizontal: bands are grid rows, broadcast over row communicators
	axisB             // vertical: bands are grid columns, broadcast over column communicators
)

func (ax axis) spanName() string {
	if ax == axisA {
		return "bcastA"
	}
	return "bcastB"
}

func (ax axis) String() string {
	if ax == axisA {
		return "horizontal"
	}
	return "vertical"
}

// commStage runs one communication stage under its span and tags a failure
// with the stage.
func commStage(p Proc, cfg *Config, ws *workingSet, ax axis, m, wm *matrix.Dense) error {
	sp := cfg.Span.Child(ax.spanName()).OnRank(p.Rank())
	if err := assembleBands(p, cfg, ws, ax, m, wm); err != nil {
		sp.Str("error", err.Error()).End()
		return fmt.Errorf("%v stage: %w", ax, err)
	}
	sp.End()
	return nil
}

// assembleBands implements stages 1 and 2: for every band (grid row of A,
// grid column of B) this rank owns a cell in, gather the band of the global
// operand m into the working matrix wm. Each maximal run of adjacent cells
// with one owner is broadcast by that owner as one panel over the band's
// communicator, straight from the owner's view of m into every member's
// view of wm — no staging buffer on this side of the runtime; a band owned
// by one rank alone is copied locally with no communication (the paper's
// special case). In SimulatedMode m and wm are nil and the panels carry
// dimensions only.
func assembleBands(p Proc, cfg *Config, ws *workingSet, ax axis, m, wm *matrix.Dense) error {
	l := cfg.Layout
	rank := p.Rank()
	bands, cross := l.GridRows, l.GridCols
	owns, procsOf, ownerAt := l.OwnsInRow, l.RowProcs, l.OwnerAt
	if ax == axisB {
		bands, cross = cross, bands
		owns, procsOf = l.OwnsInCol, l.ColProcs
		ownerAt = func(b, x int) int { return l.OwnerAt(x, b) }
	}
	// panels returns the views of m and wm covering band b's cells
	// [x0, x1) along the band.
	panels := func(b, x0, x1 int) (src, dst matrix.Dense) {
		var r0, c0, h, w, dr, dc int
		if ax == axisA {
			r0, c0 = l.RowStart(b), l.ColStart(x0)
			h, w = l.RowHeights[b], l.ColStart(x1)-c0
			dr, dc = ws.rowOff[b], c0
		} else {
			r0, c0 = l.RowStart(x0), l.ColStart(b)
			h, w = l.RowStart(x1)-r0, l.ColWidths[b]
			dr, dc = r0, ws.colOff[b]
		}
		if m == nil {
			return matrix.Dense{Rows: h, Cols: w}, matrix.Dense{Rows: h, Cols: w}
		}
		return subPanel(m, r0, c0, h, w), subPanel(wm, dr, dc, h, w)
	}
	for b := 0; b < bands; b++ {
		if !owns(rank, b) {
			continue
		}
		if procs := procsOf(b); len(procs) == 1 {
			if src, dst := panels(b, 0, cross); m != nil {
				if err := matrix.CopyBlock(&dst, &src, dst.Rows, dst.Cols); err != nil {
					return err
				}
			}
		} else {
			comm := p.Split(procs)
			for x0, x1 := 0, 1; x0 < cross; x0, x1 = x1, x1+1 {
				for x1 < cross && ownerAt(b, x1) == ownerAt(b, x0) {
					x1++
				}
				src, dst := panels(b, x0, x1)
				if err := comm.BcastPanel(p, src, dst, comm.RankOf(ownerAt(b, x0))); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// subPanel returns the h×w view of m at (r0, c0), clipped to exactly the
// elements it spans (layouts have no empty rows or columns).
func subPanel(m *matrix.Dense, r0, c0, h, w int) matrix.Dense {
	off := r0*m.Stride + c0
	return matrix.Dense{Rows: h, Cols: w, Stride: m.Stride, Data: m.Data[off : off+(h-1)*m.Stride+w]}
}

// localCompute implements stage 3: one DGEMM per owned rectangle — a maximal
// run of owned cells along a grid row, stacked over the consecutive grid rows
// that hold the identical run. A rectangle's WA rows, WB columns and C block
// are each contiguous, and it holds only cells this rank owns, so fusing adds
// no redundant computation and, by the kernel's rounding contract, changes no
// bit of C. With a Checkpointer every owned cell is looked up first: a
// restored cell is not recomputed and cuts its run, and every computed cell
// is saved after its rectangle's DGEMM. stage is the rank's "dgemm" span;
// per-rectangle spans hang off it.
func localCompute(p Proc, cfg *Config, ws *workingSet, wa, wb, c *matrix.Dense, stage obs.SpanHandle) error {
	l := cfg.Layout
	rank := p.Rank()
	n := l.N

	// In simulation, the device speed is evaluated at the rank's total
	// partition area — the workload measure of the FPMs.
	var gflops float64
	if cfg.Mode == SimulatedMode {
		area := float64(l.Areas()[rank])
		gflops = cfg.Platform.Devices[rank].GFLOPS(area)
		if gflops <= 0 {
			return fmt.Errorf("core: device %d has non-positive speed", rank)
		}
	}
	// restored marks the owned cells whose result survives from a previous
	// attempt: they are restored here and never recomputed.
	var restored []bool
	if cfg.Checkpoint != nil && cfg.Mode == RealMode {
		restored = make([]bool, len(l.Owner))
		for i := 0; i < l.GridRows; i++ {
			for j := 0; j < l.GridCols; j++ {
				if l.OwnerAt(i, j) != rank {
					continue
				}
				r0, c0, k := l.RowStart(i), l.ColStart(j), i*l.GridCols+j
				rsp := stage.Child("ckpt-restore").OnRank(rank).Int("i", int64(i)).Int("j", int64(j))
				restored[k] = cfg.Checkpoint.Restore(r0, c0, l.RowHeights[i], l.ColWidths[j], c.Data[r0*c.Stride+c0:], c.Stride)
				hit := int64(0)
				if restored[k] {
					hit = 1
					p.Compute(0, 0, fmt.Sprintf("dgemm[%d,%d]/restored", i, j))
				}
				rsp.Int("hit", hit).End()
			}
		}
	}
	todo := func(i, j int) bool {
		return l.OwnerAt(i, j) == rank && (restored == nil || !restored[i*l.GridCols+j])
	}
	// runEnd returns where the run of todo cells from (i, j) along row i ends.
	runEnd := func(i, j int) int {
		for j < l.GridCols && todo(i, j) {
			j++
		}
		return j
	}
	// isRun reports whether [j0, j1) is a maximal run of todo cells in row i.
	isRun := func(i, j0, j1 int) bool {
		return todo(i, j0) && (j0 == 0 || !todo(i, j0-1)) && runEnd(i, j0) == j1
	}
	for i0 := 0; i0 < l.GridRows; i0++ {
		for j0 := 0; j0 < l.GridCols; j0++ {
			// Each run starts one rectangle, unless the row above holds the
			// identical run and the rectangle already extends over it.
			j1 := runEnd(i0, j0)
			if !isRun(i0, j0, j1) || i0 > 0 && isRun(i0-1, j0, j1) {
				continue
			}
			i1 := i0 + 1
			for i1 < l.GridRows && isRun(i1, j0, j1) {
				i1++
			}
			r0, c0 := l.RowStart(i0), l.ColStart(j0)
			h, w := l.RowStart(i1)-r0, l.ColStart(j1)-c0
			flops := blas.GemmFlops(h, w, n)
			label := fmt.Sprintf("dgemm[%d:%d,%d:%d]", i0, i1, j0, j1)
			if cfg.Mode == SimulatedMode {
				p.Compute(flops/(gflops*1e9), flops, label)
				continue
			}
			block := c.Data[r0*c.Stride+c0:]
			aRows, bCols := wa.Data[ws.rowOff[i0]*wa.Stride:], wb.Data[ws.colOff[j0]:]
			csp := stage.Child(label).OnRank(rank).Float("flops", flops)
			start := time.Now()
			if err := blas.DgemmKernel(cfg.Kernel, h, w, n, 1, aRows, wa.Stride, bCols, wb.Stride, 0, block, c.Stride); err != nil {
				csp.Str("error", err.Error()).End()
				return err
			}
			p.Compute(time.Since(start).Seconds(), flops, label)
			csp.End()
			// The checkpoint unit stays the cell, whatever rectangle computed it.
			for i := i0; i < i1 && cfg.Checkpoint != nil; i++ {
				for j := j0; j < j1; j++ {
					r, col := l.RowStart(i), l.ColStart(j)
					ssp := stage.Child("ckpt-save").OnRank(rank).Int("i", int64(i)).Int("j", int64(j))
					cfg.Checkpoint.Save(r, col, l.RowHeights[i], l.ColWidths[j], c.Data[r*c.Stride+col:], c.Stride)
					ssp.End()
				}
			}
		}
	}
	return nil
}

func buildReport(cfg *Config, tl *trace.Timeline) (*Report, error) {
	bs := tl.Summarize()
	rep := &Report{
		N:        cfg.Layout.N,
		PerRank:  bs,
		Timeline: tl,
	}
	rep.ExecutionTime = trace.MaxOver(bs, func(b trace.Breakdown) float64 { return b.Finish })
	rep.ComputeTime = trace.MaxOver(bs, func(b trace.Breakdown) float64 { return b.ComputeTime })
	rep.CommTime = trace.MaxOver(bs, func(b trace.Breakdown) float64 { return b.CommTime })
	if rep.ExecutionTime > 0 {
		n := float64(cfg.Layout.N)
		rep.GFLOPS = 2 * n * n * n / rep.ExecutionTime / 1e9
	}
	if ratio, err := partition.OptimalityRatio(cfg.Layout); err == nil {
		rep.OptimalityRatio = ratio
	}
	if cfg.Platform != nil {
		j, err := energy.ExactDynamicEnergy(cfg.Platform, tl)
		if err != nil {
			return nil, err
		}
		rep.DynamicEnergyJ = j
	}
	return rep, nil
}

// String renders the report as a short human-readable summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"N=%d exec=%.6fs comp=%.6fs comm=%.6fs perf=%.1f GFLOPS dynE=%.1fJ",
		r.N, r.ExecutionTime, r.ComputeTime, r.CommTime, r.GFLOPS, r.DynamicEnergyJ)
}
