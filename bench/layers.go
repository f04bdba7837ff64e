package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/serve"
)

// The layer ladder calls each layer's exported functions directly, from
// outside, on the sizes the workload uses (its N, its layouts' real cell
// shapes, its runtime, a sample of its job stream), so that a layer number can
// be set beside the end-to-end number it is supposed to explain. Every rung is
// boxed in time. Micro-rungs report the best repetition: this box's noise only
// ever adds time. Rungs that run whole ops or jobs report medians.

// rungTime is the time box of a micro-rung and rungJobs how many jobs the
// service rungs run, both at the default run length; a shorter run scales
// them (and the arrays of the bandwidth rungs) down with it.
const (
	rungTime = 200 * time.Millisecond
	rungJobs = 12
)

type ladder struct {
	w     *workload
	scale float64 // run length over the default, at most 1
	rng   *rand.Rand
	m     map[string]metric
	in    *engineInputs // workload N, the four paper shapes
	specs []*serve.SubmitRequest
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

// box is a rung's time box and count a rung's repetition count, both scaled
// to the run length; count never goes below atLeast.
func (l *ladder) box(d time.Duration) time.Duration { return time.Duration(float64(d) * l.scale) }
func (l *ladder) count(n, atLeast int) int          { return max(atLeast, int(float64(n)*l.scale)) }

// best is the smallest of a rung's repetitions, in seconds.
func best(secs []float64) float64 {
	b := math.Inf(1)
	for _, s := range secs {
		b = math.Min(b, s)
	}
	return b
}

// runLadder measures every per-layer metric the ladder owns for one workload
// at the given run length.
func runLadder(w *workload, seed int64, seconds float64) (map[string]metric, error) {
	l := &ladder{w: w, rng: rand.New(rand.NewSource(seed ^ 0x1add)), m: map[string]metric{}, scale: math.Min(1, seconds/defaultSeconds)}
	var err error
	if l.in, err = newEngineInputs(w.n, partition.Shapes, l.rng); err != nil {
		return nil, err
	}
	if l.specs, err = w.ladderSpecs(l.count(rungJobs, 2), l.rng); err != nil {
		return nil, err
	}
	for _, rung := range []func() error{
		l.machineAndMatrix, l.blas, l.partition, l.mpi, l.netmpi,
		l.coreInproc, l.coreTCP, l.sched, l.frontDoors,
	} {
		// Every rung starts from a collected heap: the rung before may have
		// left hundreds of megabytes of garbage, and a collection running
		// into the next rung's timing would be charged to the wrong layer.
		runtime.GC()
		if err := rung(); err != nil {
			return nil, err
		}
	}
	return l.m, nil
}

// ladderSpecs is a sample of the workload's job stream for the service rungs:
// the service workloads' own mix, or jobs of the engine workload's size and
// shapes.
func (w *workload) ladderSpecs(count int, rng *rand.Rand) (reqs []*serve.SubmitRequest, err error) {
	switch {
	case w.service && !w.tcp:
		reqs, _, err = jobMix(count, fleetSizes, shapeNames(true), speedChoices, fleetPerturbed, rng)
	case w.service:
		reqs, _, err = jobMix(count, netmpiSizes, shapeNames(false), [][]float64{nil}, 0, rng)
	default:
		reqs, _, err = jobMix(count, []int{w.n}, shapeNames(false), [][]float64{engineSpeeds}, 0, rng)
	}
	return reqs, err
}

// llcBytes reads the last-level cache size the kernel reports (0 if unknown).
func llcBytes() int64 {
	var size int64
	for idx := 0; idx < 8; idx++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", idx))
		if err != nil {
			break
		}
		var n int64
		var unit string
		if _, err := fmt.Sscanf(strings.TrimSpace(string(b)), "%d%s", &n, &unit); err == nil {
			switch unit {
			case "K":
				n <<= 10
			case "M":
				n <<= 20
			}
			size = max(size, n)
		}
	}
	return size
}

// mulAddChains runs 8 independent multiply-add chains for iters steps: 16
// floating-point operations per step with nothing but registers involved —
// the scalar peak the pure-Go kernel is measured against.
func mulAddChains(iters int) float64 {
	x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	const a, b = 0.999999, 1e-9
	for i := 0; i < iters; i++ {
		x0 = x0*a + b
		x1 = x1*a + b
		x2 = x2*a + b
		x3 = x3*a + b
		x4 = x4*a + b
		x5 = x5*a + b
		x6 = x6*a + b
		x7 = x7*a + b
	}
	return x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
}

// probe is a 96×96 matrix product of the harness's own (plain i-k-j loops,
// cache-resident), never the repository's blas: how long it takes says how fast
// the box was when the run was made, whatever the code under test became.
func probe(a, b, out []float64) {
	const n = 96
	clear(out)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			row, dst := b[k*n:(k+1)*n], out[i*n:(i+1)*n]
			for j, v := range row {
				dst[j] += aik * v
			}
		}
	}
}

// sink and sinkM keep the compiler from removing measured work.
var (
	sink  float64
	sinkM *matrix.Dense
)

// machineAndMatrix measures the denominators — copy bandwidth and scalar peak
// — and the matrix package's block copies over the same arrays. Bytes are
// computed from array sizes (read + written), not counted by hardware.
func (l *ladder) machineAndMatrix() error {
	n := l.w.n
	pa, pb, pout := make([]float64, 96*96), make([]float64, 96*96), make([]float64, 96*96)
	for i := range pa {
		pa[i], pb[i] = float64(i%7)-3, float64(i%5)-2
	}
	l.set("machine.probe_ms", 1e3*median(timeIt(l.box(rungTime), 5, func() { probe(pa, pb, pout) })), "ms")
	l.set("matrix.random_us", 1e6*best(timeIt(l.box(rungTime)/4, 3, func() { sinkM = matrix.Random(n, n, l.rng) })), "us")
	l.set("matrix.new_us", 1e6*best(timeIt(l.box(rungTime)/4, 3, func() { sinkM = matrix.New(n, n) })), "us")

	rows, cols := l.count(4096, 64), 8192 // at full length 32 Mi float64 = 256 MiB per array
	src, dst := make([]float64, rows*cols), make([]float64, rows*cols)
	for i := range src {
		src[i] = float64(i)
	}
	copy(dst, src) // fault dst in before timing
	bytes := float64(2 * 8 * len(src))
	l.set("machine.copy_gbps", bytes/best(timeIt(0, 3, func() { copy(dst, src) }))/1e9, "GB/s")
	fmt.Printf("machine: copy over 2 × %d MiB arrays; last-level cache %d MiB (the host's, shared with its other tenants)\n",
		8*len(src)>>20, llcBytes()>>20)

	iters := l.count(10_000_000, 100_000)
	one := best(timeIt(0, 3, func() { sink += mulAddChains(iters) }))
	two := best(timeIt(0, 3, func() {
		var wg sync.WaitGroup
		var parts [2]float64
		for g := range parts {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				parts[g] = mulAddChains(iters)
			}(g)
		}
		wg.Wait()
		sink += parts[0] + parts[1]
	}))
	l.set("machine.scalar_peak_gflops_1t", 16*float64(iters)/one/1e9, "GFLOP/s")
	l.set("machine.scalar_peak_gflops_2t", 2*16*float64(iters)/two/1e9, "GFLOP/s")

	srcM, err := matrix.FromSlice(rows, cols, src)
	if err != nil {
		return err
	}
	dstM, err := matrix.FromSlice(rows, cols, dst)
	if err != nil {
		return err
	}
	l.set("matrix.copyblock_gbps", bytes/best(timeIt(0, 3, func() {
		if err := matrix.CopyBlock(dstM, srcM, rows, cols); err != nil {
			panic(err)
		}
	}))/1e9, "GB/s")
	// Pack and unpack a strided half-width block (the shape of a broadcast
	// payload cut out of a wider matrix) through a contiguous buffer.
	half := cols / 2
	view := srcM.MustView(0, 0, rows, half)
	buf := dst[:rows*half]
	halfBytes := float64(2 * 8 * rows * half)
	l.set("matrix.packblock_gbps", halfBytes/best(timeIt(0, 3, func() { matrix.PackBlock(buf, view, rows, half) }))/1e9, "GB/s")
	l.set("matrix.unpackblock_gbps", halfBytes/best(timeIt(0, 3, func() {
		if err := matrix.UnpackBlock(view, buf, rows, half); err != nil {
			panic(err)
		}
	}))/1e9, "GB/s")
	return nil
}

// blas measures the kernel on the square problem, on the workload's own cell
// panels — the (h×N)·(N×w) DGEMM of every cell of every layout, as core calls
// them — and against the plain single-threaded baseline.
func (l *ladder) blas() error {
	in, n := l.in, l.w.n
	dgemm := func(kern blas.Kernel, m, w, k int, a, b, c []float64, ld int) {
		if err := blas.DgemmKernel(kern, m, w, k, 1, a, ld, b, ld, 0, c, ld); err != nil {
			panic(err)
		}
	}
	sq := best(timeIt(l.box(rungTime), l.count(3, 1), func() { dgemm(blas.KernelBlocked, n, n, n, in.a.Data, in.b.Data, in.c.Data, n) }))
	l.set("blas.dgemm_square_gflops", blas.GemmFlops(n, n, n)/sq/1e9, "GFLOP/s")

	var cellFlops float64
	cells := best(timeIt(l.box(rungTime), l.count(2, 1), func() {
		cellFlops = 0
		for _, lay := range in.layouts {
			for i := 0; i < lay.GridRows; i++ {
				for j := 0; j < lay.GridCols; j++ {
					h, w := lay.RowHeights[i], lay.ColWidths[j]
					r0, c0 := lay.RowStart(i), lay.ColStart(j)
					dgemm(blas.KernelBlocked, h, w, n, in.a.Data[r0*n:], in.b.Data[c0:], in.c.Data[r0*n+c0:], n)
					cellFlops += blas.GemmFlops(h, w, n)
				}
			}
		}
	}))
	cellGflops := cellFlops / cells / 1e9
	l.set("blas.dgemm_cells_gflops", cellGflops, "GFLOP/s")

	const nn = 256
	a, b, c := matrix.Random(nn, nn, l.rng), matrix.Random(nn, nn, l.rng), matrix.New(nn, nn)
	naive := best(timeIt(l.box(rungTime)/2, l.count(2, 1), func() { dgemm(blas.KernelNaive, nn, nn, nn, a.Data, b.Data, c.Data, nn) }))
	l.set("blas.naive_n256_gflops", blas.GemmFlops(nn, nn, nn)/naive/1e9, "GFLOP/s")

	// Computed, not measured: 2N³ flops over the 3·8·N² bytes of A, B and C.
	fpb := float64(n) / 12
	l.set("blas.flops_per_byte", fpb, "flop/B")
	roof := math.Min(l.m["machine.scalar_peak_gflops_2t"].Value, l.m["machine.copy_gbps"].Value*fpb)
	l.set("blas.roofline_frac", cellGflops/roof, "ratio")
	return nil
}

// partition measures layout construction and records each shape's exact
// communication volume and its distance from the lower bound.
func (l *ladder) partition() error {
	n := l.w.n
	var areas []int
	var err error
	l.set("balance.proportional_us", 1e6*best(timeIt(l.box(rungTime)/8, 3, func() {
		areas, err = balance.Proportional(n*n, engineSpeeds)
	})), "us")
	if err != nil {
		return err
	}
	for k, sh := range partition.Shapes {
		l.set("partition.build_us."+sh.String(), 1e6*best(timeIt(l.box(rungTime)/8, 3, func() {
			if _, err := partition.Build(sh, n, areas); err != nil {
				panic(err)
			}
		})), "us")
		var elems int
		for _, v := range l.in.layouts[k].CommVolumes() {
			elems += v
		}
		l.set("partition.comm_elems."+sh.String(), float64(elems), "count")
		ratio, err := partition.OptimalityRatio(l.in.layouts[k])
		if err != nil {
			return err
		}
		l.set("partition.optimality_ratio."+sh.String(), ratio, "ratio")
	}
	l.set("partition.optimalshape_ms", 1e3*best(timeIt(l.box(rungTime)/2, l.count(2, 1), func() {
		if _, _, err := partition.OptimalShape(n, areas, 0); err != nil {
			panic(err)
		}
	})), "ms")
	return nil
}

// Broadcast payloads of the two fixed rungs: one frame-sized, one panel-sized.
const (
	bcastSmall = 64 << 10 / 8 // 64 KiB of float64
	bcastLarge = 2 << 20 / 8  // 2 MiB of float64
)

// mpi measures the in-process runtime: spinning a 3-rank world up and down,
// and its broadcast at the two payload sizes.
func (l *ladder) mpi() error {
	run := func(body func(p *mpi.Proc) error) error {
		world, err := mpi.NewWorld(mpi.Config{Procs: 3})
		if err != nil {
			return err
		}
		return world.Run(body)
	}
	var err error
	l.set("mpi.world_run_us", 1e6*best(timeIt(l.box(rungTime)/4, 5, func() {
		if e := run(func(*mpi.Proc) error { return nil }); e != nil {
			err = e
		}
	})), "us")
	if err != nil {
		return err
	}
	bcast := func(count, reps int) (float64, error) {
		src := make([]float64, count)
		var per float64
		err := run(func(p *mpi.Proc) error {
			comm := p.CommWorld()
			var buf []float64
			if p.Rank() == 0 {
				buf = src
			}
			comm.Barrier(p)
			t := time.Now()
			for i := 0; i < reps; i++ {
				comm.Bcast(p, buf, count, 0)
			}
			comm.Barrier(p)
			if p.Rank() == 0 {
				per = time.Since(t).Seconds() / float64(reps)
			}
			return nil
		})
		return per, err
	}
	small, err := bestOfThree(func() (float64, error) { return bcast(bcastSmall, l.count(200, 5)) })
	if err != nil {
		return err
	}
	large, err := bestOfThree(func() (float64, error) { return bcast(bcastLarge, l.count(20, 2)) })
	if err != nil {
		return err
	}
	l.set("mpi.bcast3_64k_us", 1e6*small, "us")
	l.set("mpi.bcast3_2m_gbps", 8*bcastLarge/large/1e9, "GB/s")
	return nil
}

// bestOfThree is the smallest of three measurements.
func bestOfThree(measure func() (float64, error)) (float64, error) {
	b := math.Inf(1)
	for i := 0; i < 3; i++ {
		v, err := measure()
		if err != nil {
			return 0, err
		}
		b = math.Min(b, v)
	}
	return b, nil
}
