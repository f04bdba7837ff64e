package sched

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/slab"
)

// TestJobOperandsIgnoreRecycledContents: operands drawn into NaN-poisoned
// recycled buffers equal the ones drawn into fresh memory, bit for bit.
func TestJobOperandsIgnoreRecycledContents(t *testing.T) {
	const n, seed = 48, 5
	a, b, c := jobOperands(n, seed)
	want := [2][]float64{append([]float64(nil), a.Data...), append([]float64(nil), b.Data...)}
	slab.Put(a.Data)
	slab.Put(b.Data)
	slab.Put(c.Data)

	var mu sync.Mutex
	poisoned := map[*float64]bool{}
	defer slab.SetReuseHook(func(s []float64) {
		mu.Lock()
		poisoned[&s[:1][0]] = true
		mu.Unlock()
		for i := range s {
			s[i] = math.NaN()
		}
	})()
	a, b, _ = jobOperands(n, seed)
	mu.Lock()
	defer mu.Unlock()
	for k, m := range []*matrix.Dense{a, b} {
		if !poisoned[&m.Data[0]] {
			t.Errorf("operand %c was not a recycled buffer", "AB"[k])
		}
		for i, v := range m.Data {
			if math.Float64bits(v) != math.Float64bits(want[k][i]) {
				t.Fatalf("operand %c[%d] = %v from a poisoned buffer, %v from a fresh one", "AB"[k], i, v, want[k][i])
			}
		}
	}
}

// TestVerifyOnPoisonedReference: the verify path's reference product comes
// from the slab free list; with every recycled buffer NaN-filled, verified
// jobs still verify, because DGEMM with β = 0 overwrites all of it.
func TestVerifyOnPoisonedReference(t *testing.T) {
	defer slab.SetReuseHook(func(s []float64) {
		for i := range s {
			s[i] = math.NaN()
		}
	})()
	s := newTestScheduler(t, func(c *Config) {
		c.Workers = 1
	})
	spec := JobSpec{N: 64, Shape: "square-corner", Seed: 3, Verify: true}
	for _, v := range runSpecs(t, s, []JobSpec{spec, spec, spec}) {
		if !v.Verified {
			t.Errorf("job %s: not verified (err %v)", v.ID, v.Err)
		}
	}
}

// TestOneDigestPerNSeed: jobs with equal (N, seed) share one digest under
// the four paper shapes and the planner's own choice, on both runners — the
// exact-result contract (DESIGN.md §6) seen from the service.
func TestOneDigestPerNSeed(t *testing.T) {
	shapes := []string{"square-corner", "square-rectangle", "block-rectangle", "1d-rectangle", "auto"}
	for _, n := range []int{64, 100} {
		specs := make([]JobSpec, len(shapes))
		for i, shape := range shapes {
			specs[i] = JobSpec{N: n, Shape: shape, Seed: 11}
		}
		where := map[string][]string{} // digest → runner/shape pairs that gave it
		for _, tc := range []struct {
			name   string
			runner Runner
		}{
			{"inproc", &InprocRunner{}},
			{"netmpi", &NetmpiRunner{OpTimeout: 10 * time.Second}},
		} {
			s := newTestScheduler(t, func(c *Config) {
				c.Runner = tc.runner
			})
			for i, v := range runSpecs(t, s, specs) {
				if shapes[i] != "auto" && v.Plan.Shape != shapes[i] {
					t.Errorf("N=%d %s: planned %s", n, shapes[i], v.Plan.Shape)
				}
				where[v.Digest] = append(where[v.Digest], tc.name+"/"+v.Plan.Shape)
			}
		}
		if len(where) != 1 {
			t.Errorf("N=%d: %d digests for one (N, seed): %v", n, len(where), where)
		}
	}
}

func BenchmarkJobOperands(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.SetBytes(int64(2 * 8 * n * n)) // A and B are filled
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, bm, c := jobOperands(n, int64(i))
				slab.Put(a.Data)
				slab.Put(bm.Data)
				slab.Put(c.Data)
			}
		})
	}
}
