package recover

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/partition"
)

// Replan builds the survivors' partition: the casualty has already been
// dropped from speeds, which holds one relative speed per surviving rank in
// the new (compacted) rank order. Exactly the planner's shape policy, one
// processor down: the exact minimum-communication search for three
// survivors, falling back to the arbitrary-P column-based heuristic — and
// a trivial single-cell layout when only one rank remains.
//
// Replan deliberately skips the memory admission check: a recovery trades
// memory headroom for availability.
func Replan(n int, speeds []float64, tol int) (*partition.Layout, string, error) {
	if len(speeds) == 0 {
		return nil, "", fmt.Errorf("recover: no survivors to replan over")
	}
	areas, err := balance.Proportional(n*n, speeds)
	if err != nil {
		return nil, "", fmt.Errorf("recover: survivor areas: %w", err)
	}
	// Shape constructors need every area positive; steal one element from
	// the largest share for any rank rounded down to zero (mirrors the
	// planner).
	for i := range areas {
		if areas[i] == 0 {
			areas[maxIndex(areas)]--
			areas[i] = 1
		}
	}
	if len(areas) == 3 {
		if best, _, err := partition.OptimalShape(n, areas, tol); err == nil {
			return best.Layout, best.Shape.String(), nil
		}
		// No family realizes these areas within tolerance: fall through to
		// column-based, which realizes any positive areas exactly.
	}
	layout, err := partition.ColumnBased(n, areas)
	if err != nil {
		return nil, "", fmt.Errorf("recover: column-based replan: %w", err)
	}
	return layout, "column-based", nil
}

// DropRank removes index dead from a survivor-ordered slice, returning a
// fresh slice — used for both the speed vector and the rank-to-origin map.
func DropRank[T any](xs []T, dead int) ([]T, error) {
	if dead < 0 || dead >= len(xs) {
		return nil, fmt.Errorf("recover: dead rank %d outside [0,%d)", dead, len(xs))
	}
	out := make([]T, 0, len(xs)-1)
	out = append(out, xs[:dead]...)
	return append(out, xs[dead+1:]...), nil
}

func maxIndex(xs []int) int {
	m := 0
	for i, x := range xs {
		if x > xs[m] {
			m = i
		}
	}
	return m
}
