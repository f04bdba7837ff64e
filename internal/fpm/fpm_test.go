package fpm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstantModel(t *testing.T) {
	c := Constant{S: 5}
	for _, w := range []float64{0, 1, 1e9} {
		if c.Speed(w) != 5 {
			t.Fatalf("Constant.Speed(%v) = %v", w, c.Speed(w))
		}
	}
}

func TestTimeHelper(t *testing.T) {
	c := Constant{S: 2}
	if Time(c, 10) != 5 {
		t.Fatalf("Time = %v, want 5", Time(c, 10))
	}
	if Time(c, 0) != 0 {
		t.Fatal("zero workload must take zero time")
	}
	if Time(c, -1) != 0 {
		t.Fatal("negative workload must take zero time")
	}
	if !math.IsInf(Time(Constant{S: 0}, 1), 1) {
		t.Fatal("zero speed must give +Inf time")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(nil); err == nil {
		t.Fatal("empty points must fail")
	}
	bad := [][]Point{
		{{W: 1, S: math.NaN()}},
		{{W: math.Inf(1), S: 1}},
		{{W: -1, S: 1}},
		{{W: 1, S: -2}},
		{{W: 1, S: 1}, {W: 1, S: 2}}, // duplicate W
	}
	for i, ps := range bad {
		if _, err := NewTable(ps); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestTableInterpolation(t *testing.T) {
	tab, err := NewTable([]Point{{W: 10, S: 100}, {W: 0, S: 0}, {W: 20, S: 50}}) // unsorted on purpose
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Speed(5); got != 50 {
		t.Fatalf("Speed(5) = %v, want 50", got)
	}
	if got := tab.Speed(15); got != 75 {
		t.Fatalf("Speed(15) = %v, want 75", got)
	}
	// Clamping outside the range.
	if got := tab.Speed(-3); got != 0 {
		t.Fatalf("Speed(-3) = %v, want 0 (clamp)", got)
	}
	if got := tab.Speed(100); got != 50 {
		t.Fatalf("Speed(100) = %v, want 50 (clamp)", got)
	}
	// Knots are hit exactly.
	if got := tab.Speed(10); got != 100 {
		t.Fatalf("Speed(10) = %v, want 100", got)
	}
}

func TestTablePointsSortedCopy(t *testing.T) {
	tab, _ := NewTable([]Point{{W: 2, S: 1}, {W: 1, S: 3}})
	ps := tab.Points()
	if ps[0].W != 1 || ps[1].W != 2 {
		t.Fatalf("Points not sorted: %v", ps)
	}
	ps[0].S = 999
	if tab.Speed(1) == 999 {
		t.Fatal("Points must return a copy")
	}
}

func TestAkimaNeedsFivePoints(t *testing.T) {
	pts := []Point{{W: 1, S: 1}, {W: 2, S: 2}, {W: 3, S: 3}, {W: 4, S: 4}}
	if _, err := NewAkima(pts); err == nil {
		t.Fatal("4 points must fail")
	}
}

func TestAkimaPassesThroughKnots(t *testing.T) {
	pts := []Point{
		{W: 0, S: 1}, {W: 1, S: 3}, {W: 2, S: 2}, {W: 3, S: 5}, {W: 4, S: 4}, {W: 5, S: 6},
	}
	ak, err := NewAkima(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if got := ak.Speed(p.W); math.Abs(got-p.S) > 1e-12 {
			t.Fatalf("Akima(%v) = %v, want %v", p.W, got, p.S)
		}
	}
}

func TestAkimaLinearDataStaysLinear(t *testing.T) {
	// Akima on exactly linear data reproduces the line (a well-known
	// property: no overshoot on linear segments).
	var pts []Point
	for i := 0; i < 8; i++ {
		pts = append(pts, Point{W: float64(i), S: 2 * float64(i)})
	}
	ak, err := NewAkima(pts)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0.0; w <= 7; w += 0.25 {
		if got := ak.Speed(w); math.Abs(got-2*w) > 1e-9 {
			t.Fatalf("Akima(%v) = %v, want %v", w, got, 2*w)
		}
	}
}

func TestAkimaClampsAndNonNegative(t *testing.T) {
	pts := []Point{
		{W: 0, S: 5}, {W: 1, S: 0}, {W: 2, S: 10}, {W: 3, S: 0}, {W: 4, S: 5}, {W: 5, S: 1},
	}
	ak, err := NewAkima(pts)
	if err != nil {
		t.Fatal(err)
	}
	if ak.Speed(-1) != 5 || ak.Speed(99) != 1 {
		t.Fatal("Akima must clamp outside range")
	}
	for w := 0.0; w <= 5; w += 0.01 {
		if ak.Speed(w) < 0 {
			t.Fatalf("Akima produced negative speed at %v", w)
		}
	}
}

// Property: table interpolation stays within the [min, max] of its
// bracketing knots (linear interpolation cannot overshoot).
func TestQuickTableBounded(t *testing.T) {
	f := func(seed int64, q float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 2
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{W: float64(i), S: rng.Float64() * 100}
		}
		tab, err := NewTable(pts)
		if err != nil {
			return false
		}
		w := math.Mod(math.Abs(q), float64(n-1))
		v := tab.Speed(w)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			lo = math.Min(lo, p.S)
			hi = math.Max(hi, p.S)
		}
		return v >= lo-1e-9 && v <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: both interpolants agree exactly at every knot.
func TestQuickInterpolantsAgreeAtKnots(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 5
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{W: float64(i * 2), S: rng.Float64()*50 + 1}
		}
		tab, err1 := NewTable(pts)
		ak, err2 := NewAkima(pts)
		if err1 != nil || err2 != nil {
			return false
		}
		for _, p := range pts {
			if math.Abs(tab.Speed(p.W)-p.S) > 1e-9 || math.Abs(ak.Speed(p.W)-p.S) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
