package core_test

import (
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestMultiplySteadyStateAllocCeiling: once the slab free list is warm, a
// multiply allocates its rank goroutines, its Timeline, its report and
// nothing that grows with N². At N=256 the three working-matrix pairs alone are 1.4 MB
// (what every call allocated, and zeroed, before they were recycled); the
// ceiling is 64 KiB.
func TestMultiplySteadyStateAllocCeiling(t *testing.T) {
	const n, ceiling = 256, 64 << 10
	rng := rand.New(rand.NewSource(3))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	cfg := core.Config{Layout: shapeLayout(t, partition.SquareCorner, n, []float64{1.0, 2.0, 0.9})}
	res := testing.Benchmark(func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			if _, err := core.Multiply(a, b, c, cfg); err != nil {
				bm.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > ceiling {
		t.Fatalf("steady-state core.Multiply at N=%d allocates %d B/op over %d ops, ceiling %d", n, got, res.N, ceiling)
	}
}

// TestRecycledBuffersSurviveGC: garbage collections cost the multiplies that
// follow them none of their recycled buffers. After a warm-up, twelve
// multiplies at N=512 (all four shapes, three rounds), each right after a
// forced GC, allocate under the same 64 KiB a multiply each. With sync.Pools,
// which the collector empties, every one of them re-allocated its slabs and
// packed panels: half a megabyte apiece. A multiply that meets a first-ever
// concurrency peak (more ranks inside a DGEMM at once than ever before)
// allocates one more panel buffer, so the warm-up runs the four shapes at
// once, each into its own C: its peak is far above what one measured
// multiply can reach, and the free list keeps the buffers it drew.
func TestRecycledBuffersSurviveGC(t *testing.T) {
	const n, ceiling, warm, rounds = 512, 64 << 10, 4, 3
	rng := rand.New(rand.NewSource(5))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	var cfgs []core.Config
	for _, shape := range partition.Shapes {
		cfgs = append(cfgs, core.Config{Layout: shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9})})
	}
	multiply := func(cfg core.Config) {
		if _, err := core.Multiply(a, b, c, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < warm; round++ {
		var wg sync.WaitGroup
		for _, cfg := range cfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := core.Multiply(a, b, matrix.New(n, n), cfg); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if t.Failed() {
		t.FailNow()
	}
	var before, after runtime.MemStats
	var total uint64
	for round := 0; round < rounds; round++ {
		for _, cfg := range cfgs {
			runtime.GC()
			runtime.ReadMemStats(&before)
			multiply(cfg)
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	if ops := uint64(rounds * len(cfgs)); total > ops*ceiling {
		t.Fatalf("%d multiplies, each right after a GC, allocated %d B, ceiling %d B", ops, total, ops*ceiling)
	}
}

// TestWarmMultiplyDrawsNoNewSlab: once warm, every working matrix a multiply
// draws is a recycled buffer, drawn in rank order. Warmed up as the benchmark
// warms up, with the four shapes in turn at N = 512, each of 400 sequential
// multiplies must find its ranks' WA and WB in the free list, rank 0's first.
// Drawn by the ranks themselves, in an order that varied from run to run,
// the size classes kept missing after warm-up: one or two new buffers per
// 800 multiplies, each hundreds of kilobytes, which an allocation ceiling per
// op cannot see. The body runs in a fresh child process, marked the way
// TestAbortThenReuse marks its own, so that buffers other tests left in the
// free list cannot hide a miss.
func TestWarmMultiplyDrawsNoNewSlab(t *testing.T) {
	if os.Getenv(freshDigestsEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestWarmMultiplyDrawsNoNewSlab$")
		cmd.Env = append(os.Environ(), freshDigestsEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh process: %v\n%s", err, out)
		}
		return
	}
	const n, warm, runs = 512, 16, 400
	rng := rand.New(rand.NewSource(51))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	var cfgs []core.Config
	lens := map[int]bool{}
	for _, shape := range partition.Shapes {
		l := shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9})
		cfgs = append(cfgs, core.Config{Layout: l})
		for k := range core.WorkingMatrixLens(l) {
			lens[k] = true
		}
	}
	multiply := func(cfg core.Config) {
		if _, err := core.Multiply(a, b, c, cfg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		multiply(cfgs[i%len(cfgs)])
	}
	log := core.LogRecycledDraws(t, lens)
	for i := 0; i < runs; i++ {
		cfg := cfgs[i%len(cfgs)]
		multiply(cfg)
		if got, want := log.Take(), core.WorkingMatrixDraws(cfg.Layout); !slices.Equal(got, want) {
			t.Fatalf("warm multiply %d drew %v from the free list, want all of %v in rank order", i, got, want)
		}
	}
}

// TestWarmMultiplyAllocs: a warm multiply reads its schedule off the layout's
// compiled form and runs its ranks on shared memory, so it allocates little
// more than its report, its Timeline (sized once from the schedule) and its
// rank goroutines: 10 allocations on every shape, ceiling 12. On a resident
// mpi world it made 17, and rebuilding the world's communicators and
// re-walking the layout grid on every call cost ~130.
func TestWarmMultiplyAllocs(t *testing.T) {
	const n, ceiling = 64, 12
	rng := rand.New(rand.NewSource(8))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	for _, shape := range partition.Shapes {
		cfg := core.Config{Layout: shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9})}
		got := testing.AllocsPerRun(20, func() {
			if _, err := core.Multiply(a, b, c, cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %v allocations per multiply", shape, got)
		if got > ceiling {
			t.Errorf("%v: a warm core.Multiply at N=%d makes %v allocations, ceiling %d", shape, n, got, ceiling)
		}
	}
}

// TestWarmLargeMultiplyAllocs: at N = 512 every rank's DGEMM is large
// enough to share its rows out to a second worker, and sharing out allocates
// nothing once warm, so a warm multiply makes 10–11 allocations on every
// shape (up to 12 under -race), as at N = 64 where no DGEMM shares out; the
// ceiling is 13. On a resident mpi world it made 17–18, and with a closure
// allocated per worker 23–26. testing.AllocsPerRun runs at GOMAXPROCS 1,
// where no DGEMM shares out, so this counts allocations itself, at
// GOMAXPROCS 2.
func TestWarmLargeMultiplyAllocs(t *testing.T) {
	const n, ceiling, warm, runs = 512, 13, 10, 40
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(8))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	for _, shape := range partition.Shapes {
		cfg := core.Config{Layout: shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9})}
		var before, after runtime.MemStats
		for i := 0; i < warm+runs; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			if _, err := core.Multiply(a, b, c, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / runs
		t.Logf("%v: %v allocations per multiply", shape, got)
		if got > ceiling {
			t.Errorf("%v: a warm core.Multiply at N=%d makes %v allocations, ceiling %d", shape, n, got, ceiling)
		}
	}
}

// TestWarmRunRankAllocs: on a warm loopback-TCP mesh each rank finds its
// schedule and its communicators cached, so a multiply costs at most 5
// allocations per rank. The ranks run on goroutines that outlive the
// measurement, so that only RunRank is counted.
func TestWarmRunRankAllocs(t *testing.T) {
	const n, p, ceiling = 64, 3, 5
	eps := dialMesh(t, p, nil)
	rng := rand.New(rand.NewSource(9))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	var cfg core.Config
	start, done := make(chan struct{}), make(chan error)
	defer close(start)
	for _, ep := range eps {
		go func() {
			for range start {
				done <- core.RunRank(ep.Proc(), cfg, a, b, c)
			}
		}()
	}
	for _, shape := range partition.Shapes {
		cfg = core.Config{Layout: shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9})}
		got := testing.AllocsPerRun(20, func() {
			for range eps {
				start <- struct{}{}
			}
			for range eps {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		}) / p
		t.Logf("%v: %v allocations per rank", shape, got)
		if got > ceiling {
			t.Errorf("%v: a warm core.RunRank at N=%d makes %v allocations per rank, ceiling %d", shape, n, got, ceiling)
		}
	}
}

// nopCheckpointer restores nothing and saves nowhere: a first attempt's
// Checkpointer, which still makes the engine look up and save every cell.
type nopCheckpointer struct{}

func (nopCheckpointer) Restore(int, int, int, int) bool { return false }
func (nopCheckpointer) Save(int, int, int, int)         {}

// TestSpanAllocCeiling: a traced multiply takes its span times from the
// record its ranks already write and adds its spans to the recorder in one
// batch, so on the four shapes at N = 128, with and without a Checkpointer,
// spans cost at most 2 allocations beyond a bare recorder and its root span.
// With a span per stage, rectangle and checkpointed cell, each made by the
// rank that ran it, they cost 7–9 allocations (about 3.5 KB) and 23–55 with
// a Checkpointer. The allocations counted include the Report's Imbalance.
func TestSpanAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch on purpose")
	}
	const n, ceiling = 128, 2
	rng := rand.New(rand.NewSource(13))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	// perOp returns the allocations and bytes per multiply of cfg, each under
	// a fresh recorder's root span, which traced hands the multiply.
	perOp := func(cfg core.Config, traced bool) (allocs, bytes float64) {
		const warm, runs = 5, 40
		var before, after runtime.MemStats
		for i := 0; i < warm+runs; i++ {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			rec := obs.NewRecorder()
			root := rec.Root("op")
			if traced {
				cfg.Span = root
			}
			if _, err := core.Multiply(a, b, c, cfg); err != nil {
				t.Fatal(err)
			}
			root.End()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, ck := range []core.Checkpointer{nil, nopCheckpointer{}} {
		for _, shape := range partition.Shapes {
			cfg := core.Config{Layout: shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9}), Checkpoint: ck}
			bare, bareB := perOp(cfg, false)
			traced, tracedB := perOp(cfg, true)
			t.Logf("%v, checkpointer %v: %.1f allocations and %.0f B per multiply, %.1f and %.0f B traced: spans cost %+.1f, %+.0f B",
				shape, ck != nil, bare, bareB, traced, tracedB, traced-bare, tracedB-bareB)
			if traced-bare > ceiling {
				t.Errorf("%v, checkpointer %v: spans cost a multiply %.1f allocations, ceiling %d", shape, ck != nil, traced-bare, ceiling)
			}
		}
	}
}
