// Package fpm implements the functional performance models (FPMs) the
// paper's partitioning algorithms consume: application-specific speed
// functions of problem size.
//
// Three model classes mirror FuPerMod (Clarke et al. [14]), which the paper
// cites as the state of the art for rectangular partitions:
//
//   - Constant: a constant performance model (CPM), speed independent of
//     problem size — the model of Section VI-A.
//   - Table: piecewise-linear interpolation of a discrete speed function —
//     the non-smooth FPMs of Section VI-B.
//   - Akima: Akima-spline interpolation of the discrete speed function, the
//     third FuPerMod model class; smoother than piecewise-linear and less
//     prone to overshoot than cubic splines.
//
// Speed convention: Speed(w) returns the processing speed, in workload
// units per second, when the processor executes a workload of size w.
// SummaGen measures workload in C-partition area (matrix elements owned);
// the speed of a device multiplying two dense x×x matrices in t seconds is
// recorded at w = x² with value 2x³/t flops/s scaled appropriately by the
// caller.
package fpm

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Model is a speed function of problem size.
type Model interface {
	// Speed returns the speed (workload units per second) at workload w.
	// Implementations must return a non-negative, finite value for any
	// w >= 0.
	Speed(w float64) float64
}

// Time returns the execution-time estimate w/Speed(w) used throughout the
// paper's formulations (formulas 1 and 3). Zero workload takes zero time;
// zero speed with positive workload yields +Inf.
func Time(m Model, w float64) float64 {
	if w <= 0 {
		return 0
	}
	s := m.Speed(w)
	if s <= 0 {
		return math.Inf(1)
	}
	return w / s
}

// Constant is a constant performance model.
type Constant struct {
	S float64
}

// Speed implements Model.
func (c Constant) Speed(float64) float64 { return c.S }

// Point is one measurement of a discrete speed function.
type Point struct {
	W float64 // workload size
	S float64 // measured speed at that size
}

// validatePoints checks and sorts a copy of the points by workload.
func validatePoints(points []Point) ([]Point, error) {
	if len(points) == 0 {
		return nil, errors.New("fpm: no points")
	}
	ps := append([]Point(nil), points...)
	sort.Slice(ps, func(i, j int) bool { return ps[i].W < ps[j].W })
	for i, p := range ps {
		if math.IsNaN(p.W) || math.IsNaN(p.S) || math.IsInf(p.W, 0) || math.IsInf(p.S, 0) {
			return nil, fmt.Errorf("fpm: non-finite point %+v", p)
		}
		if p.W < 0 || p.S < 0 {
			return nil, fmt.Errorf("fpm: negative point %+v", p)
		}
		if i > 0 && ps[i-1].W == p.W {
			return nil, fmt.Errorf("fpm: duplicate workload %v", p.W)
		}
	}
	return ps, nil
}

// Table is a piecewise-linear interpolant of a discrete speed function.
// Outside the measured range it clamps to the end values.
type Table struct {
	points []Point
}

// NewTable builds a piecewise-linear FPM from measurements.
func NewTable(points []Point) (*Table, error) {
	ps, err := validatePoints(points)
	if err != nil {
		return nil, err
	}
	return &Table{points: ps}, nil
}

// Points returns a copy of the (sorted) knots.
func (t *Table) Points() []Point { return append([]Point(nil), t.points...) }

// Speed implements Model by linear interpolation between knots.
func (t *Table) Speed(w float64) float64 {
	ps := t.points
	if w <= ps[0].W {
		return ps[0].S
	}
	if w >= ps[len(ps)-1].W {
		return ps[len(ps)-1].S
	}
	// Binary search for the bracketing interval.
	i := sort.Search(len(ps), func(i int) bool { return ps[i].W > w })
	lo, hi := ps[i-1], ps[i]
	f := (w - lo.W) / (hi.W - lo.W)
	return lo.S + f*(hi.S-lo.S)
}

// Akima is an Akima-spline interpolant of a discrete speed function,
// clamped to end values outside the measured range and floored at zero
// (speeds cannot be negative).
type Akima struct {
	points []Point
	slopes []float64 // spline slope at each knot
}

// NewAkima builds an Akima-spline FPM. At least five points are required
// (the Akima construction uses two neighbours on each side).
func NewAkima(points []Point) (*Akima, error) {
	ps, err := validatePoints(points)
	if err != nil {
		return nil, err
	}
	n := len(ps)
	if n < 5 {
		return nil, fmt.Errorf("fpm: Akima needs >= 5 points, got %d", n)
	}
	// Segment slopes m[i] for i in [0, n-2], extended by two virtual
	// segments on each side per Akima's original construction.
	m := make([]float64, n+3) // m[2..n] are real, m[0],m[1],m[n+1],m[n+2] virtual
	for i := 0; i < n-1; i++ {
		m[i+2] = (ps[i+1].S - ps[i].S) / (ps[i+1].W - ps[i].W)
	}
	m[1] = 2*m[2] - m[3]
	m[0] = 2*m[1] - m[2]
	m[n+1] = 2*m[n] - m[n-1]
	m[n+2] = 2*m[n+1] - m[n]

	slopes := make([]float64, n)
	for i := 0; i < n; i++ {
		w1 := math.Abs(m[i+3] - m[i+2])
		w2 := math.Abs(m[i+1] - m[i])
		if w1+w2 == 0 {
			slopes[i] = (m[i+1] + m[i+2]) / 2
		} else {
			slopes[i] = (w1*m[i+1] + w2*m[i+2]) / (w1 + w2)
		}
	}
	return &Akima{points: ps, slopes: slopes}, nil
}

// Speed implements Model by Hermite evaluation of the Akima spline.
func (a *Akima) Speed(w float64) float64 {
	ps := a.points
	n := len(ps)
	if w <= ps[0].W {
		return ps[0].S
	}
	if w >= ps[n-1].W {
		return ps[n-1].S
	}
	i := sort.Search(n, func(i int) bool { return ps[i].W > w }) - 1
	h := ps[i+1].W - ps[i].W
	t := (w - ps[i].W) / h
	s0, s1 := ps[i].S, ps[i+1].S
	d0, d1 := a.slopes[i]*h, a.slopes[i+1]*h
	t2, t3 := t*t, t*t*t
	v := s0*(2*t3-3*t2+1) + d0*(t3-2*t2+t) + s1*(-2*t3+3*t2) + d1*(t3-t2)
	if v < 0 {
		v = 0
	}
	return v
}
