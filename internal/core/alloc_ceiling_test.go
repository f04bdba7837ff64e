//go:build !race

package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// TestMultiplySteadyStateAllocCeiling: once the slab pool is warm, a
// multiply allocates its world, its channels, its report and nothing that
// grows with N². At N=256 the three working-matrix pairs alone are 1.4 MB
// (what every call allocated, and zeroed, before they were pooled); the
// ceiling is 64 KiB. Excluded under -race, where sync.Pool drops a quarter
// of its Puts by design.
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
