package core_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// TestMultiplySteadyStateAllocCeiling: once the slab free list is warm, a
// multiply allocates its world, its channels, its report and nothing that
// grows with N². At N=256 the three working-matrix pairs alone are 1.4 MB
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
