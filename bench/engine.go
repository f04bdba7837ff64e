package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/obs"
	"repro/internal/partition"
)

// engineSpeeds are the paper's relative speeds for the three abstract
// processors of HCLServer1 (CPU, GPU, Xeon Phi).
var engineSpeeds = []float64{1.0, 2.0, 0.9}

// refRows is how many seeded rows of C every checked op is compared on.
const refRows = 32

// reference is the harness's own answer for refRows rows of C = A·B, from the
// plain serial kernel — never from the engine under test.
type reference struct {
	rows []int
	want *matrix.Dense // refRows × N
	tol  float64
}

// newReference computes the serial reference; the time it takes is harness
// work, reported as harness.reference_s and kept out of setup_s.
func newReference(a, b *matrix.Dense, rng *rand.Rand) (*reference, time.Duration, error) {
	start := time.Now()
	n := a.Rows
	rows := rng.Perm(n)[:min(refRows, n)]
	sub := matrix.New(len(rows), n)
	for k, i := range rows {
		copy(sub.Row(k), a.Row(i))
	}
	want := matrix.New(len(rows), n)
	if err := blas.DgemmKernel(blas.KernelNaive, len(rows), n, n, 1, sub.Data, sub.Stride, b.Data, b.Stride, 0, want.Data, want.Stride); err != nil {
		return nil, 0, fmt.Errorf("serial reference: %w", err)
	}
	// Inputs are uniform in [−1,1): each C element is a sum of N products of
	// magnitude < 1, so 8·N·2⁻⁵³ bounds the reordering error with room.
	tol := 8 * float64(n) * math.Pow(2, -53)
	return &reference{rows, want, tol}, time.Since(start), nil
}

// poison overwrites the checked rows of c with NaN, so that an op which
// leaves a cell unwritten cannot pass on the previous op's result.
func (r *reference) poison(c *matrix.Dense) {
	for _, i := range r.rows {
		row := c.Row(i)
		for j := range row {
			row[j] = math.NaN()
		}
	}
}

// maxErr returns max |C − Ĉ| over the checked rows (+Inf on a NaN).
func (r *reference) maxErr(c *matrix.Dense) float64 {
	var worst float64
	for k, i := range r.rows {
		got, want := c.Row(i), r.want.Row(k)
		for j := range got {
			d := math.Abs(got[j] - want[j])
			if math.IsNaN(d) {
				return math.Inf(1)
			}
			worst = math.Max(worst, d)
		}
	}
	return worst
}

// engineInputs are the seeded operands and the layouts an engine workload
// multiplies under.
type engineInputs struct {
	n       int
	a, b, c *matrix.Dense
	shapes  []partition.Shape
	layouts []*partition.Layout
}

// newEngineInputs generates the operands from rng and builds one layout per
// shape with the balance → partition pipeline the CLI tools use.
func newEngineInputs(n int, shapes []partition.Shape, rng *rand.Rand) (*engineInputs, error) {
	in := &engineInputs{n: n, shapes: shapes}
	in.a = matrix.Random(n, n, rng)
	in.b = matrix.Random(n, n, rng)
	in.c = matrix.New(n, n)
	areas, err := balance.Proportional(n*n, engineSpeeds)
	if err != nil {
		return nil, err
	}
	for _, sh := range shapes {
		l, err := partition.Build(sh, n, areas)
		if err != nil {
			return nil, fmt.Errorf("layout %s n=%d: %w", sh, n, err)
		}
		in.layouts = append(in.layouts, l)
	}
	return in, nil
}

// multiplier runs one multiply under a config; the two engine workloads differ
// only in which runtime carries the ranks.
type multiplier interface {
	multiply(in *engineInputs, cfg core.Config) (*core.Report, error)
	close()
}

// inprocMultiplier is core.Multiply on the in-process mpi runtime.
type inprocMultiplier struct{}

func (inprocMultiplier) multiply(in *engineInputs, cfg core.Config) (*core.Report, error) {
	return core.Multiply(in.a, in.b, in.c, cfg)
}
func (inprocMultiplier) close() {}

// tcpMultiplier is core.RunRank on every endpoint of a 3-rank loopback-TCP
// mesh that is dialled once and reused by every op.
type tcpMultiplier struct {
	eps []*netmpi.Endpoint
}

// dialMesh listens on p loopback ports and dials the full mesh.
func dialMesh(p, wireVersion int) (*tcpMultiplier, error) {
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:r] {
				l.Close()
			}
			return nil, err
		}
		listeners[r], addrs[r] = ln, ln.Addr().String()
	}
	m := &tcpMultiplier{eps: make([]*netmpi.Endpoint, p)}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m.eps[rank], errs[rank] = netmpi.Dial(netmpi.Config{Rank: rank, Addrs: addrs, Listener: listeners[rank], WireVersion: wireVersion})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			m.close()
			return nil, fmt.Errorf("dial mesh: %w", err)
		}
	}
	return m, nil
}

// multiply runs all ranks in this process over the shared operands: the engine
// reads only owned partitions and writes disjoint C cells per rank, as in
// sched.NetmpiRunner. The report carries only what the endpoints account.
func (m *tcpMultiplier) multiply(in *engineInputs, cfg core.Config) (*core.Report, error) {
	p := len(m.eps)
	errs := make([]error, p)
	comp0, comm0 := make([]float64, p), make([]float64, p)
	for r, ep := range m.eps {
		comp0[r], comm0[r], _ = ep.Breakdown()
	}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = core.RunRank(m.eps[rank].Proc(), cfg, in.a, in.b, in.c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	rep := &core.Report{N: in.n}
	for r, ep := range m.eps {
		comp, comm, _ := ep.Breakdown()
		rep.ComputeTime = math.Max(rep.ComputeTime, comp-comp0[r])
		rep.CommTime = math.Max(rep.CommTime, comm-comm0[r])
	}
	return rep, nil
}

func (m *tcpMultiplier) close() {
	for _, ep := range m.eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// engineInstance is a set-up engine workload: inputs, runtime, reference.
type engineInstance struct {
	in    *engineInputs
	mul   multiplier
	ref   *reference
	refIn time.Duration

	maxErr float64
}

// setupEngine is everything an HPC user pays before the first multiply:
// operands, layouts, the mesh when there is one, and the warm-up ops.
func setupEngine(n int, shapes []partition.Shape, tcp bool, seed int64, warm int) (*engineInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	in, err := newEngineInputs(n, shapes, rng)
	if err != nil {
		return nil, err
	}
	e := &engineInstance{in: in, mul: inprocMultiplier{}}
	if tcp {
		if e.mul, err = dialMesh(3, 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < warm; i++ {
		if _, err := e.mul.multiply(in, core.Config{Layout: in.layouts[i%len(in.layouts)]}); err != nil {
			e.mul.close()
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
	}
	return e, nil
}

// prepareReference is harness-only work, kept outside set-up.
func (e *engineInstance) prepareReference(seed int64) error {
	var err error
	e.ref, e.refIn, err = newReference(e.in.a, e.in.b, rand.New(rand.NewSource(seed^0x5eed)))
	return err
}

// run executes ops multiplies, one caller, shapes interleaved. Every 10th op
// and the last are checked against the serial reference; a wrong result is a
// failed op.
func (e *engineInstance) run(ops int, tr *tracer) []opSample {
	samples := make([]opSample, ops)
	for i := range samples {
		layout := e.in.layouts[i%len(e.in.layouts)]
		check := i%10 == 9 || i == ops-1
		if check {
			e.ref.poison(e.in.c)
		}
		cfg := core.Config{Layout: layout}
		var rec *obs.Recorder
		if tr != nil {
			rec = obs.NewRecorder()
			cfg.Span = rec.Root("op")
		}
		start := time.Now()
		rep, err := e.mul.multiply(e.in, cfg)
		end := time.Now()
		if tr != nil {
			cfg.Span.End()
			root := tr.add("op", i, -1, 0, start, end)
			call := tr.add("core", i, root, 0, start, end)
			tr.addRecorder(rec, i, call)
		}
		ok := err == nil
		if ok && check {
			d := e.ref.maxErr(e.in.c)
			e.maxErr = math.Max(e.maxErr, d)
			ok = d <= e.ref.tol
		}
		samples[i] = opSample{start: start, end: end, n: e.in.n, ok: ok}
		if err == nil {
			samples[i].computeMs = 1e3 * rep.ComputeTime
		}
	}
	return samples
}

// verify has nothing further to do: engine ops are checked as they run.
func (e *engineInstance) verify() (attempted, failed int) { return 0, 0 }

// layerMetrics reports the harness's own cost and the worst error it saw.
func (e *engineInstance) layerMetrics(m map[string]metric) {
	m["harness.reference_s"] = metric{e.refIn.Seconds(), "s"}
	m["harness.max_abs_err"] = metric{e.maxErr, "abs"}
}

func (e *engineInstance) close() { e.mul.close() }
