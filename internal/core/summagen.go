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
//     the rank's C (blas.DgemmPacked). A rectangle holds only owned cells,
//     so this keeps the paper's rule: computing per sub-partition avoids the
//     redundant-computation hazard it describes for non-rectangular
//     partitions.
//
// Every rank runs the three stages back to back on its own goroutine, on
// every runtime: one schedule, no helper goroutines. Within stages 1 and 2 a
// rank first sends the panels it owns, as far as the runtime takes them
// without making it wait (netmpi: within a send-buffer budget; shared
// memory: none), and then runs the rest of the stage in schedule order
// (assembleBands), so its own broadcasts do not queue behind its receives.
// MultiplyOn runs the ranks one process hosts on the in-process executor
// (runtime.go), rank 0 on the caller's goroutine: Multiply runs them all on
// shared memory, where a broadcast is each member's own copy out of the
// shared A or B, with no rendezvous, and a netmpi process runs its
// endpoints. Simulate walks the same compiled schedule on one virtual clock
// per rank instead (simulate.go): it models ranks waiting for each other,
// broadcasts in schedule order, and paper-scale problems (N ≈ 38k) cost it
// microseconds.
//
// Stages 1 and 2 are one routine (assembleBands) run over an axis, and they
// move each element once per receiving rank, packed once, on receipt. WA and
// WB are not row-major: they hold the DGEMM micro-kernel's packed format
// (package blas), WA as strips of 8 rows of A per grid row the rank belongs
// to and WB as strips of 8 columns of B per grid column, each band padded to
// whole strips. A run's owner hands the runtime its view of A or B, every
// member a matrix.Dest over its strips of WA or WB (Comm.BcastPanel), and
// the runtime's Put writes the strips as the panel lands; stage 3 then
// multiplies the strips in place and packs nothing. WA and WB are recycled
// through the process-wide slab free list (internal/slab), un-zeroed — a
// steady-state multiply allocates nothing that grows with N² — and go back
// to it once the rank has returned, since only the rank's own goroutine ever
// writes them. A and B are read-only to the engine, and the caller must not
// write them while a multiply runs: in-process, every rank reads them.
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
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Config parameterizes one SummaGen execution.
type Config struct {
	// Layout describes the partitioning (required).
	Layout *partition.Layout
	// Platform supplies device models; required by Simulate, and used for
	// energy accounting by every entry point when present.
	Platform *device.Platform
	// Link, LinkFor and BcastAlg are read by Simulate only. Link is the
	// inter-rank link; the zero value uses the platform's interconnect or
	// hockney.IntraNode.
	Link hockney.Link
	// LinkFor optionally supplies per-pair links (hierarchical
	// platforms; see internal/cluster). Overrides Link where set.
	LinkFor func(a, b int) hockney.Link
	// BcastAlg selects the modelled broadcast algorithm.
	BcastAlg hockney.BcastAlgorithm
	// Checkpoint, when non-nil, makes Multiply's and RunRank's compute
	// stage resumable: each owned cell is looked up before the DGEMMs (a
	// cell that earlier attempts finished in the same C is skipped, never
	// recomputed) and saved after the DGEMM of its rectangle — the engine
	// half of survivor-replan recovery (internal/recover).
	Checkpoint Checkpointer
	// Span, when enabled, is the parent under which Multiply and RunRank
	// record per-rank stage spans (bcastA, bcastB, dgemm), per-rectangle
	// DGEMM spans and per-cell checkpoint restore/save spans. The zero
	// value disables span recording at no cost (see internal/obs).
	Span obs.SpanHandle
	// DisableOverlap has no effect: every rank runs the one sequential
	// bcastA → bcastB → dgemm schedule. The field remains only so that
	// existing callers keep compiling.
	DisableOverlap bool
}

// Report summarizes one execution; the fields map one-to-one to the
// quantities plotted in the paper's figures. Multiply and MultiplyOn build
// it from the Timeline their ranks record, so the figures mean the same on
// every runtime: on a netmpi mesh, ExecutionTime starts when MultiplyOn is
// called (after a service's mesh lease and epoch fence), CommTime sums the
// engine's broadcasts and splits only (no other collective), and PerRank
// counts 8·h·w bytes per broadcast on every member (not bytes received) and
// the rank's flops. Reports marshal to JSON with the tagged field names
// below — the one serialization shared by cmd/summagen (in-process and rank
// mode) and the serving API (the Timeline is excluded; fetch it separately
// as a Chrome trace).
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
	// CommTime is the maximum over ranks of communication time — Figures
	// 6c/7c. In-process it is copy and pack time: waiting for other ranks
	// shows only in Simulate, as idle time. Over netmpi it includes the
	// wait for each broadcast's frames.
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
	// Timeline is the full event trace, with the wall-clock Origin its
	// times count from (zero for Simulate). It is deliberately not part of
	// the JSON form: traces are large and have their own Chrome-trace
	// serialization (internal/trace).
	Timeline *trace.Timeline `json:"-"`
	// Imbalance is the per-rank stage breakdown and load-imbalance ratio
	// derived from recorded spans (max/mean dgemm stage time — the
	// figure of merit the paper's FPM partitions drive to 1.0); nil when
	// observability is off.
	Imbalance *obs.ImbalanceReport `json:"imbalance,omitempty"`
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

// validate checks the config and the operands, which must be N×N, and
// returns the layout's compiled schedule.
func (c *Config) validate(ms ...*matrix.Dense) (*schedule, error) {
	if c.Layout == nil {
		return nil, errors.New("core: Config.Layout is required")
	}
	s, err := scheduleFor(c.Layout)
	if err != nil {
		return nil, err
	}
	if c.Platform != nil {
		if err := c.Platform.Validate(); err != nil {
			return nil, err
		}
		if c.Platform.P() != c.Layout.P {
			return nil, fmt.Errorf("core: platform has %d devices but layout has %d processors",
				c.Platform.P(), c.Layout.P)
		}
	}
	for _, m := range ms {
		if n := c.Layout.N; m == nil || m.Rows != n || m.Cols != n {
			return nil, fmt.Errorf("core: matrices must be %dx%d", n, n)
		}
	}
	return s, nil
}

// Multiply computes C = A·B with SummaGen, every rank on this process's
// shared memory: MultiplyOn over in-process ranks. A, B and C must be N×N
// with N = cfg.Layout.N; C is overwritten. The returned report carries the
// timing breakdowns.
func Multiply(a, b, c *matrix.Dense, cfg Config) (*Report, error) {
	s, err := cfg.validate(a, b, c)
	if err != nil {
		return nil, err
	}
	return MultiplyOn(s.shm, a, b, c, cfg)
}

// MultiplyOn runs procs, the ranks of a runtime that live in this process
// (all of an in-process world, the endpoints of a loopback netmpi mesh, or
// the one endpoint of a distributed rank), each computing its share of
// C = A·B as RunRank does, on the in-process executor: procs[0] on the
// calling goroutine, WA and WB drawn in procs order, a rank's panic returned
// as an error naming the rank, and every rank's error joined. The Report is
// built from the Timeline the ranks record, whatever the runtime; it covers
// the ranks in procs only, and its clock starts when MultiplyOn is called.
// Data ownership is as for RunRank.
func MultiplyOn(procs []Proc, a, b, c *matrix.Dense, cfg Config) (*Report, error) {
	s, err := cfg.validate(a, b, c)
	if err != nil {
		return nil, err
	}
	if len(procs) == 0 {
		return nil, errors.New("core: MultiplyOn needs at least one rank")
	}
	for _, p := range procs {
		if p.Size() != cfg.Layout.P || p.Rank() < 0 || p.Rank() >= p.Size() {
			return nil, fmt.Errorf("core: rank %d of a %d-rank runtime, but the layout has %d processors", p.Rank(), p.Size(), cfg.Layout.P)
		}
	}
	tl := trace.NewCap(s.events)
	tl.Origin = time.Now()
	rec := record{tl}
	if err := runShared(s, procs, func(p Proc, wa, wb []float64) error { return rankMain(p, &cfg, s, rec, a, b, c, wa, wb) }); err != nil {
		return nil, err
	}
	return buildReport(&cfg, s, tl)
}

// record is the Timeline a multiply's ranks record their ops on, each
// event's times in seconds since its Origin; its labels, bytes and flops are
// the schedule op's own. RunRank runs with the zero record, which records
// nothing and reads no clock.
type record struct{ tl *trace.Timeline }

// now returns the seconds since the Timeline's Origin, or 0 without one.
func (r record) now() float64 {
	if r.tl == nil {
		return 0
	}
	return time.Since(r.tl.Origin).Seconds()
}

// add records rank's op of kind from start until now, and returns now.
func (r record) add(rank int, kind trace.Kind, label string, bytes int, flops, start float64) float64 {
	if r.tl == nil {
		return 0
	}
	end := r.now()
	r.tl.Add(trace.Event{Rank: rank, Kind: kind, Start: start, End: end, Bytes: bytes, Flops: flops, Label: label})
	return end
}

// rankMain runs one rank's three stages back to back on the calling
// goroutine, as its compiled schedule lists them, and records each op on
// rec. The caller draws WA and WB un-zeroed, since stages 1 and 2 write every
// element stage 3 reads, padding included, and puts them back however the
// rank returns: no other goroutine writes them.
func rankMain(p Proc, cfg *Config, s *schedule, rec record, a, b, c *matrix.Dense, wa, wb []float64) error {
	if err := assembleBands(p, cfg, s, rec, axisA, a, wa); err != nil {
		return err
	}
	if err := assembleBands(p, cfg, s, rec, axisB, b, wb); err != nil {
		return err
	}
	sp := cfg.Span.Child("dgemm").OnRank(p.Rank())
	if err := localCompute(p, cfg, s, rec, wa, wb, c, sp); err != nil {
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

func (ax axis) spanName() string { return [...]string{"bcastA", "bcastB"}[ax] }
func (ax axis) String() string   { return [...]string{"horizontal", "vertical"}[ax] }

// assembleBands runs stage 1 (ax = axisA) or 2 (axisB) under its span:
// the rank's band ops gather every band of m (grid row of A, grid column of
// B) it owns a cell in into w, WA or WB, as packed strips (rows of A, columns
// of B), each broadcast going straight from the owner's view of m into every
// member's strips.
//
// A stage first creates every communicator it uses and reserves its slots,
// one per broadcast over it (Comm.Reserve), so that a broadcast's messages
// are keyed by its place in the schedule, not by when it runs. Then it makes
// two passes over the ops:
//
//  1. Post: the broadcasts this rank roots go out before it waits for any
//     other's, as far as the runtime takes them now (Comm.PostPanel). The
//     pass stops at the first broadcast the runtime does not take, so a
//     rank's posted frames precede, on every connection, everything it
//     sends later.
//  2. In order: everything else, in schedule order — local copies,
//     receives, and the broadcasts the post pass did not run.
//
// The shared-memory runtime posts nothing, so in-process the second pass
// runs the whole stage. Each split and broadcast is recorded as one Comm
// event that spans the whole call, the receiver's Put included, in the pass
// that runs it. A failure is tagged with the stage.
func assembleBands(p Proc, cfg *Config, s *schedule, rec record, ax axis, m *matrix.Dense, w []float64) (err error) {
	rank := p.Rank()
	sp := cfg.Span.Child(ax.spanName()).OnRank(rank)
	defer func() {
		if err != nil {
			sp.Str("error", err.Error())
			err = fmt.Errorf("%v stage: %w", ax, err)
		}
		sp.End()
	}()
	into, stride := matrix.IntoRowStrips, blas.StripWidth*s.layout.N
	if ax == axisB {
		into = matrix.IntoColStrips
	}
	ops := s.ranks[rank].ops[ax]
	for i := range ops {
		if o := &ops[i]; o.split {
			t := rec.now()
			if c := p.Split(o.procs); o.slots > 0 {
				c.Reserve(o.slots)
			}
			rec.add(rank, trace.Comm, s.labels[o.band][0], 0, 0, t)
		}
	}
	var comm Comm // the band's: its ops are consecutive, and its first splits
	posted := 0   // the broadcasts this rank roots in ops[:posted] have run
	for i := range ops {
		o := &ops[i]
		if o.procs == nil {
			continue
		}
		if o.split {
			comm = p.Split(o.procs)
		}
		src, dst, t := subPanel(m, o.r0, o.c0, o.h, o.w), into(w[o.off:], stride, o.h, o.w), rec.now()
		ok, err := comm.PostPanel(p, src, dst, o.root, o.slot)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if o.procs[o.root] == rank {
			rec.add(rank, trace.Comm, s.labels[o.band][1], 8*o.h*o.w, 0, t)
		}
		posted = i + 1
	}
	for i := range ops {
		o := &ops[i]
		src, dst := subPanel(m, o.r0, o.c0, o.h, o.w), into(w[o.off:], stride, o.h, o.w)
		if o.procs == nil {
			if err := dst.Put(&src); err != nil {
				return err
			}
			continue
		}
		if o.split {
			comm = p.Split(o.procs)
		}
		if i < posted && o.procs[o.root] == rank {
			continue
		}
		t := rec.now()
		if err := comm.BcastPanel(p, src, dst, o.root, o.slot); err != nil {
			return err
		}
		rec.add(rank, trace.Comm, s.labels[o.band][1], 8*o.h*o.w, 0, t)
	}
	return nil
}

// subPanel returns the h×w view of m at (r0, c0), clipped to exactly the
// elements it spans (layouts have no empty rows or columns).
func subPanel(m *matrix.Dense, r0, c0, h, w int) matrix.Dense {
	off := r0*m.Stride + c0
	return matrix.Dense{Rows: h, Cols: w, Stride: m.Stride, Data: m.Data[off : off+(h-1)*m.Stride+w]}
}

// computeFault, when non-nil, is what every rank's compute stage returns in
// place of its first DGEMM. Only tests set it, while no multiply runs.
var computeFault error

// localCompute implements stage 3: one DGEMM per rectangle of the rank's
// schedule, straight from the packed strips of WA and WB. A rectangle's
// grid rows are consecutive bands of WA, its grid columns consecutive bands
// of WB and its C block contiguous, and it holds only cells this rank owns,
// so fusing cells adds no redundant computation and, by the kernel's
// rounding contract, changes no bit of C. With a Checkpointer every owned
// cell is looked up first; a restored cell cuts its run, so the rectangles
// are found again over the cells left, and each computed cell is saved
// after its rectangle's DGEMM. stage is the rank's "dgemm" span;
// per-rectangle spans hang off it. Each DGEMM is recorded on rec, and a
// restored cell as an instant compute event of no flops.
func localCompute(p Proc, cfg *Config, s *schedule, rec record, wa, wb []float64, c *matrix.Dense, stage obs.SpanHandle) error {
	l, rank := &s.layout, p.Rank()
	rs := &s.ranks[rank]
	rects := rs.rects
	if cfg.Checkpoint != nil {
		restored := map[[2]int]bool{}
		for _, cell := range rs.cells {
			i, j := cell[0], cell[1]
			r0, c0 := s.rowStart[i], s.colStart[j]
			rsp := stage.Child("ckpt-restore").OnRank(rank).Int("i", int64(i)).Int("j", int64(j))
			hit := int64(0)
			if cfg.Checkpoint.Restore(r0, c0, s.rowStart[i+1]-r0, s.colStart[j+1]-c0) {
				hit, restored[cell] = 1, true
				if rec.tl != nil { // RunRank formats no label it would not record
					rec.add(rank, trace.Compute, fmt.Sprintf("dgemm[%d,%d]/restored", i, j), 0, 0, rec.now())
				}
			}
			rsp.Int("hit", hit).End()
		}
		if len(restored) > 0 {
			rects = s.findRects(func(i, j int) bool { return l.OwnerAt(i, j) == rank && !restored[[2]int{i, j}] })
		}
	}
	stride := blas.StripWidth * l.N
	for _, rc := range rects {
		block := c.Data[rc.r0*c.Stride+rc.c0:]
		pa, pb := wa[rs.rowStrip[rc.i0]*stride:], wb[rs.colStrip[rc.j0]*stride:]
		csp := stage.Child(rc.label).OnRank(rank).Float("flops", rc.flops)
		t, start := rec.now(), time.Now()
		err := computeFault
		if err == nil {
			err = blas.DgemmPacked(l.RowHeights[rc.i0:rc.i1], l.ColWidths[rc.j0:rc.j1], l.N, pa, pb, block, c.Stride)
		}
		if err != nil {
			csp.Str("error", err.Error()).End()
			return err
		}
		p.Compute(time.Since(start).Seconds(), rc.flops, rc.label)
		rec.add(rank, trace.Compute, rc.label, 0, rc.flops, t)
		csp.End()
		// The checkpoint unit stays the cell, whatever rectangle computed it.
		for i := rc.i0; i < rc.i1 && cfg.Checkpoint != nil; i++ {
			for j := rc.j0; j < rc.j1; j++ {
				r, col := s.rowStart[i], s.colStart[j]
				ssp := stage.Child("ckpt-save").OnRank(rank).Int("i", int64(i)).Int("j", int64(j))
				cfg.Checkpoint.Save(r, col, s.rowStart[i+1]-r, s.colStart[j+1]-col)
				ssp.End()
			}
		}
	}
	return nil
}

func buildReport(cfg *Config, s *schedule, tl *trace.Timeline) (*Report, error) {
	bs := tl.Summarize()
	rep := &Report{
		N:               s.layout.N,
		PerRank:         bs,
		Timeline:        tl,
		OptimalityRatio: s.ratio,
	}
	rep.ExecutionTime = trace.MaxOver(bs, func(b trace.Breakdown) float64 { return b.Finish })
	rep.ComputeTime = trace.MaxOver(bs, func(b trace.Breakdown) float64 { return b.ComputeTime })
	rep.CommTime = trace.MaxOver(bs, func(b trace.Breakdown) float64 { return b.CommTime })
	if rep.ExecutionTime > 0 {
		n := float64(s.layout.N)
		rep.GFLOPS = 2 * n * n * n / rep.ExecutionTime / 1e9
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
