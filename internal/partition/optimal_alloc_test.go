//go:build !race

package partition

import (
	"testing"

	"repro/internal/balance"
)

// TestOptimalShapeAllocs: scoring a candidate allocates nothing, so a
// search allocates only the five winning layouts and its result list, as
// many objects at N = 64 as at N = 4096 (serve's largest N). Building every
// candidate's layout cost 106 k allocations at N = 48 and 50 M at N = 1024.
func TestOptimalShapeAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		areas, err := balance.Proportional(n*n, []float64{1, 2, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := OptimalShape(n, areas, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(4096)
	if small != large || large > 200 {
		t.Fatalf("OptimalShape allocates %v objects at N=64 and %v at N=4096, want equal and at most 200", small, large)
	}
}
