// Package balance implements the workload-distribution algorithms the
// paper uses for Step 1 of every shape construction (Section V):
//
//   - Proportional: for constant performance models, areas proportional to
//     speeds, following the classical approach of Beaumont et al. [2].
//   - FPMBalance: the iterative load-balancing algorithm for smooth
//     functional performance models (Lastovetsky & Reddy [18]) — bisection
//     on the common execution time T, allocating to each processor the
//     largest workload it finishes within T.
//   - LoadImbalance: the load-imbalancing data-partitioning algorithm over
//     non-smooth discrete FPMs (Khaleghzadeh, Reddy & Lastovetsky [17]),
//     which minimizes the parallel computation time exactly over a
//     discretized workload grid even when optimal distributions are uneven
//     and do not balance execution times.
package balance

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fpm"
)

// ParseSpeeds parses a comma-separated list of relative speeds, such as
// "1.0,2.0,0.9". Each field, trimmed of spaces, must be a whole float64
// literal; the error for the first one that is not names it.
func ParseSpeeds(s string) ([]float64, error) {
	fields := strings.Split(s, ",")
	speeds := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("balance: speed %d of %q is %q, not a number", i+1, s, f)
		}
		speeds[i] = v
	}
	return speeds, nil
}

// Proportional splits `total` workload units among processors
// proportionally to their (positive) speeds, using largest-remainder
// rounding so the parts sum exactly to total. Speeds must be normal
// float64s (at least 0x1p-1022) whose sum, and whose products with total,
// stay finite; anything else is rejected rather than rounded into garbage
// areas.
func Proportional(total int, speeds []float64) ([]int, error) {
	if total < 0 {
		return nil, fmt.Errorf("balance: negative total %d", total)
	}
	if len(speeds) == 0 {
		return nil, fmt.Errorf("balance: no processors")
	}
	var sum float64
	for i, s := range speeds {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("balance: speed[%d] = %v must be positive and finite", i, s)
		}
		if s < 0x1p-1022 {
			return nil, fmt.Errorf("balance: speed[%d] = %v is below the smallest normal float64", i, s)
		}
		sum += s
		if math.IsInf(sum, 0) {
			return nil, fmt.Errorf("balance: speed[%d] = %v overflows the sum of speeds", i, s)
		}
	}
	parts := make([]int, len(speeds))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(speeds))
	assigned := 0
	for i, s := range speeds {
		ts := float64(total) * s
		if math.IsInf(ts, 0) {
			return nil, fmt.Errorf("balance: speed[%d] = %v times total %d overflows", i, s, total)
		}
		exact := ts / sum
		parts[i] = int(math.Floor(exact))
		assigned += parts[i]
		rems[i] = rem{idx: i, frac: exact - math.Floor(exact)}
	}
	// Distribute the remaining units to the largest fractional parts;
	// ties broken by index for determinism.
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for i := 0; i < total-assigned; i++ {
		parts[rems[i%len(rems)].idx]++
	}
	return parts, nil
}

// FPMBalance distributes `total` workload units over smooth FPMs so that
// execution times are (approximately) equal: bisection on the common time
// T, where each processor receives the largest workload w with
// w/Speed(w) <= T. It assumes w/Speed(w) is non-decreasing in w, the
// standard FPM assumption; the returned distribution sums exactly to
// total.
func FPMBalance(total int, models []fpm.Model) ([]int, error) {
	if total < 0 {
		return nil, fmt.Errorf("balance: negative total %d", total)
	}
	p := len(models)
	if p == 0 {
		return nil, fmt.Errorf("balance: no processors")
	}
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("balance: model %d is nil", i)
		}
		if m.Speed(float64(total)/float64(p)) <= 0 {
			return nil, fmt.Errorf("balance: model %d has non-positive speed", i)
		}
	}
	if total == 0 {
		return make([]int, p), nil
	}
	// maxWithin returns the largest w in [0, total] with time(w) <= T
	// (monotone assumption → binary search).
	maxWithin := func(m fpm.Model, T float64) int {
		lo, hi := 0, total // time(lo) = 0 <= T always
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if fpm.Time(m, float64(mid)) <= T {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		return lo
	}
	capacity := func(T float64) int {
		c := 0
		for _, m := range models {
			c += maxWithin(m, T)
		}
		return c
	}
	// Bracket T: grow until feasible.
	hi := fpm.Time(models[0], float64(total)/float64(p))
	if hi <= 0 {
		hi = 1
	}
	for capacity(hi) < total {
		hi *= 2
		if math.IsInf(hi, 1) {
			return nil, fmt.Errorf("balance: cannot fit total %d on given models", total)
		}
	}
	lo := 0.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if capacity(mid) >= total {
			hi = mid
		} else {
			lo = mid
		}
	}
	parts := make([]int, p)
	got := 0
	for i, m := range models {
		parts[i] = maxWithin(m, hi)
		got += parts[i]
	}
	// Trim any surplus from the slowest finishers (largest time first).
	for got > total {
		worst, worstT := -1, -1.0
		for i := range parts {
			if parts[i] == 0 {
				continue
			}
			t := fpm.Time(models[i], float64(parts[i]))
			if t > worstT {
				worst, worstT = i, t
			}
		}
		parts[worst]--
		got--
	}
	// Top up any deficit on the fastest finishers.
	for got < total {
		best, bestT := -1, math.Inf(1)
		for i := range parts {
			t := fpm.Time(models[i], float64(parts[i]+1))
			if t < bestT {
				best, bestT = i, t
			}
		}
		parts[best]++
		got++
	}
	return parts, nil
}

// Result of a LoadImbalance run.
type Result struct {
	// Parts is the workload per processor (sums to total).
	Parts []int
	// Time is the predicted parallel computation time max_i t_i(parts_i).
	Time float64
}

// LoadImbalance minimizes max_i Time(models[i], w_i) subject to
// Σ w_i = total, where each w_i is restricted to multiples of
// `granularity` (plus a remainder unit on the final processor grid point).
// Unlike FPMBalance it makes no monotonicity or smoothness assumption —
// with non-smooth FPMs the optimum is generally an *uneven* distribution
// that does not equalize execution times, which is exactly the behaviour
// of the paper's Section VI-B experiments.
//
// The minimization is exact over the discretized grid via dynamic
// programming: O(p · K²) where K = total/granularity.
func LoadImbalance(total int, models []fpm.Model, granularity int) (Result, error) {
	p := len(models)
	if p == 0 {
		return Result{}, fmt.Errorf("balance: no processors")
	}
	if total < 0 {
		return Result{}, fmt.Errorf("balance: negative total %d", total)
	}
	if granularity <= 0 {
		return Result{}, fmt.Errorf("balance: granularity %d must be positive", granularity)
	}
	for i, m := range models {
		if m == nil {
			return Result{}, fmt.Errorf("balance: model %d is nil", i)
		}
	}
	if total == 0 {
		return Result{Parts: make([]int, p)}, nil
	}
	// K grid units of `granularity` workload each; any remainder
	// (< granularity) is appended to the largest part afterwards, an
	// error below the discretization error already inherent to the grid.
	k := total / granularity
	if k == 0 {
		k = 1
	}
	unitsOf := func(units int) int { return units * granularity }
	// timeOf[i][u]: time of processor i executing u grid units.
	timeOf := make([][]float64, p)
	for i, m := range models {
		timeOf[i] = make([]float64, k+1)
		for u := 0; u <= k; u++ {
			timeOf[i][u] = fpm.Time(m, float64(unitsOf(u)))
		}
	}
	// dp[u] after considering processors [i..p): minimal max-time to
	// execute u units. Iterate processors backwards.
	const inf = math.MaxFloat64
	dp := make([]float64, k+1)
	choice := make([][]int, p) // choice[i][u]: units given to processor i
	for u := 1; u <= k; u++ {
		dp[u] = inf
	}
	// Base: last processor takes everything that is left.
	last := p - 1
	choice[last] = make([]int, k+1)
	for u := 0; u <= k; u++ {
		dp[u] = timeOf[last][u]
		choice[last][u] = u
	}
	for i := p - 2; i >= 0; i-- {
		ndp := make([]float64, k+1)
		choice[i] = make([]int, k+1)
		for u := 0; u <= k; u++ {
			best := inf
			bestTake := 0
			for take := 0; take <= u; take++ {
				t := timeOf[i][take]
				restT := dp[u-take]
				if restT > t {
					t = restT
				}
				if t < best {
					best = t
					bestTake = take
				}
			}
			ndp[u] = best
			choice[i][u] = bestTake
		}
		dp = ndp
	}
	// Reconstruct, then hand the sub-granularity remainder to the largest
	// part.
	parts := make([]int, p)
	u := k
	for i := 0; i < p; i++ {
		take := choice[i][u]
		parts[i] = unitsOf(take)
		u -= take
	}
	sum := 0
	for _, w := range parts {
		sum += w
	}
	if diff := total - sum; diff != 0 {
		maxI := 0
		for i := range parts {
			if parts[i] > parts[maxI] {
				maxI = i
			}
		}
		parts[maxI] += diff
	}
	var tmax float64
	for i, w := range parts {
		if t := fpm.Time(models[i], float64(w)); t > tmax {
			tmax = t
		}
	}
	return Result{Parts: parts, Time: tmax}, nil
}

// FPMAreas splits the N² elements of C with LoadImbalance over models, at
// the granularity every FPM-partitioned layout uses, max(N²/256, 1).
func FPMAreas(n int, models []fpm.Model) ([]int, error) {
	res, err := LoadImbalance(n*n, models, max(n*n/256, 1))
	return res.Parts, err
}

// Positive gives every area at least one element, taking each from the
// largest share, since a shape constructor needs every area positive. It
// changes areas in place and returns it.
func Positive(areas []int) []int {
	for i := range areas {
		if areas[i] == 0 {
			areas[slices.Index(areas, slices.Max(areas))]--
			areas[i] = 1
		}
	}
	return areas
}

// BruteForceMinMax exhaustively minimizes max time over all distributions
// of `total` units in steps of `granularity` — exponential; for testing
// LoadImbalance on small instances only.
func BruteForceMinMax(total int, models []fpm.Model, granularity int) (Result, error) {
	p := len(models)
	if p == 0 || total < 0 || granularity <= 0 {
		return Result{}, fmt.Errorf("balance: bad arguments")
	}
	best := Result{Time: math.Inf(1)}
	parts := make([]int, p)
	var rec func(i, left int, cur float64)
	rec = func(i, left int, cur float64) {
		if i == p-1 {
			t := fpm.Time(models[i], float64(left))
			if t < cur {
				t = cur
			}
			if t < best.Time {
				parts[i] = left
				best = Result{Parts: append([]int(nil), parts...), Time: t}
			}
			return
		}
		for w := 0; w <= left; w += granularity {
			t := fpm.Time(models[i], float64(w))
			if t > cur {
				if t >= best.Time {
					continue
				}
				parts[i] = w
				rec(i+1, left-w, t)
			} else {
				parts[i] = w
				rec(i+1, left-w, cur)
			}
		}
		// Also try absorbing the non-multiple remainder here.
		if r := left % granularity; r != 0 {
			w := left
			t := fpm.Time(models[i], float64(w))
			if t < best.Time {
				m := math.Max(t, cur)
				parts[i] = w
				rec(i+1, 0, m)
			}
		}
	}
	rec(0, total, 0)
	return best, nil
}
