package balance

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fpm"
)

// TestParseSpeeds: every field must be a whole number; trailing garbage,
// an empty list and an empty field are errors naming the bad field.
func TestParseSpeeds(t *testing.T) {
	for _, c := range []struct {
		in      string
		want    []float64
		errPart string
	}{
		{in: "1.0,2.0,0.9", want: []float64{1, 2, 0.9}},
		{in: " 1 , 2e0,\t0.5 ", want: []float64{1, 2, 0.5}},
		{in: "1.0x", errPart: `speed 1 of "1.0x" is "1.0x"`},
		{in: "1,2abc,3", errPart: `speed 2 of "1,2abc,3" is "2abc"`},
		{in: "", errPart: `speed 1 of "" is ""`},
		{in: "1,,2", errPart: `speed 2 of "1,,2" is ""`},
	} {
		got, err := ParseSpeeds(c.in)
		if c.errPart != "" {
			if err == nil || !strings.Contains(err.Error(), c.errPart) {
				t.Errorf("ParseSpeeds(%q) = %v, %v; want an error containing %s", c.in, got, err, c.errPart)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseSpeeds(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestProportionalPaperSpeeds(t *testing.T) {
	// The paper's constant relative speeds {1.0, 2.0, 0.9}.
	total := 16 * 16
	parts, err := Proportional(total, []float64{1.0, 2.0, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if sum(parts) != total {
		t.Fatalf("parts %v do not sum to %d", parts, total)
	}
	// Ideal: 65.6, 131.3, 59.1.
	if parts[0] < 65 || parts[0] > 66 || parts[1] < 131 || parts[1] > 132 || parts[2] < 59 || parts[2] > 60 {
		t.Fatalf("parts %v far from proportional", parts)
	}
}

func TestProportionalExactDivision(t *testing.T) {
	parts, err := Proportional(100, []float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if parts[0] != 25 || parts[1] != 25 || parts[2] != 50 {
		t.Fatalf("parts = %v", parts)
	}
}

func TestProportionalValidation(t *testing.T) {
	if _, err := Proportional(-1, []float64{1}); err == nil {
		t.Fatal("negative total must fail")
	}
	if _, err := Proportional(10, nil); err == nil {
		t.Fatal("empty speeds must fail")
	}
	for _, bad := range [][]float64{{0}, {-1}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := Proportional(10, bad); err == nil {
			t.Fatalf("speeds %v must fail", bad)
		}
	}
}

// TestProportionalFloatRange rejects speeds outside float64's normal range,
// naming the offending speed, and keeps every normal input's areas.
func TestProportionalFloatRange(t *testing.T) {
	const total = 64 * 64
	for _, tc := range []struct {
		speeds  []float64
		want    []int  // nil: must fail
		errWant string // substring naming the speed
	}{
		{speeds: []float64{1e308, 1, 1}, errWant: "speed[0] = 1e+308"},
		{speeds: []float64{1e308, 1e308, 1}, errWant: "speed[1] = 1e+308"},
		{speeds: []float64{5e-324, 5e-324, 5e-324}, errWant: "speed[0] = 5e-324"},
		{speeds: []float64{1, 2, 0.9}, want: []int{1050, 2101, 945}},
	} {
		parts, err := Proportional(total, tc.speeds)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.errWant) {
				t.Errorf("Proportional(%v) = %v, %v; want an error naming %q", tc.speeds, parts, err, tc.errWant)
			}
			continue
		}
		if err != nil || !slices.Equal(parts, tc.want) {
			t.Errorf("Proportional(%v) = %v, %v; want %v", tc.speeds, parts, err, tc.want)
		}
	}
}

func TestProportionalZeroTotal(t *testing.T) {
	parts, err := Proportional(0, []float64{1, 2})
	if err != nil || parts[0] != 0 || parts[1] != 0 {
		t.Fatalf("parts=%v err=%v", parts, err)
	}
}

func TestFPMBalanceConstantModelsMatchProportional(t *testing.T) {
	models := []fpm.Model{fpm.Constant{S: 1}, fpm.Constant{S: 2}, fpm.Constant{S: 0.9}}
	parts, err := FPMBalance(3900, models)
	if err != nil {
		t.Fatal(err)
	}
	if sum(parts) != 3900 {
		t.Fatalf("sum = %d", sum(parts))
	}
	want, _ := Proportional(3900, []float64{1, 2, 0.9})
	for i := range parts {
		if d := parts[i] - want[i]; d < -2 || d > 2 {
			t.Fatalf("FPM %v vs proportional %v", parts, want)
		}
	}
}

func TestFPMBalanceEqualizesTimes(t *testing.T) {
	// Two processors; the second slows down with workload. The balanced
	// point should give them (nearly) equal times.
	tab, err := fpm.NewTable([]fpm.Point{{W: 0, S: 10}, {W: 1000, S: 10}})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := fpm.NewTable([]fpm.Point{{W: 0, S: 20}, {W: 1000, S: 5}})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := FPMBalance(1000, []fpm.Model{tab, slow})
	if err != nil {
		t.Fatal(err)
	}
	if sum(parts) != 1000 {
		t.Fatalf("sum = %d", sum(parts))
	}
	t0 := fpm.Time(tab, float64(parts[0]))
	t1 := fpm.Time(slow, float64(parts[1]))
	if math.Abs(t0-t1)/math.Max(t0, t1) > 0.05 {
		t.Fatalf("times not balanced: %v vs %v (parts %v)", t0, t1, parts)
	}
}

func TestFPMBalanceValidation(t *testing.T) {
	if _, err := FPMBalance(10, nil); err == nil {
		t.Fatal("no models must fail")
	}
	if _, err := FPMBalance(-1, []fpm.Model{fpm.Constant{S: 1}}); err == nil {
		t.Fatal("negative total must fail")
	}
	if _, err := FPMBalance(10, []fpm.Model{nil}); err == nil {
		t.Fatal("nil model must fail")
	}
	if _, err := FPMBalance(10, []fpm.Model{fpm.Constant{S: 0}}); err == nil {
		t.Fatal("zero speed must fail")
	}
	parts, err := FPMBalance(0, []fpm.Model{fpm.Constant{S: 1}})
	if err != nil || parts[0] != 0 {
		t.Fatal("zero total must give zero parts")
	}
}

func TestLoadImbalanceConstantModels(t *testing.T) {
	models := []fpm.Model{fpm.Constant{S: 1}, fpm.Constant{S: 2}, fpm.Constant{S: 1}}
	res, err := LoadImbalance(400, models, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum(res.Parts) != 400 {
		t.Fatalf("sum = %d", sum(res.Parts))
	}
	// Optimal max-time = 100 (distribution 100/200/100).
	if math.Abs(res.Time-100) > 6 { // within one granularity step
		t.Fatalf("time = %v, want ≈100 (parts %v)", res.Time, res.Parts)
	}
}

func TestLoadImbalancePrefersFastRegions(t *testing.T) {
	// Non-smooth model: processor 0 has a performance cliff past w=100
	// (speed drops 10×). The optimal distribution avoids the cliff even
	// though that leaves times unbalanced.
	cliff, err := fpm.NewTable([]fpm.Point{
		{W: 0, S: 10}, {W: 100, S: 10}, {W: 101, S: 1}, {W: 1000, S: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fast := fpm.Constant{S: 10}
	res, err := LoadImbalance(300, []fpm.Model{cliff, fast}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sum(res.Parts) != 300 {
		t.Fatalf("sum = %d", sum(res.Parts))
	}
	if res.Parts[0] > 100 {
		t.Fatalf("allocation %v walked off the performance cliff", res.Parts)
	}
	// Times are intentionally imbalanced: t0 = 100/10 = 10,
	// t1 = 200/10 = 20.
	t0 := fpm.Time(cliff, float64(res.Parts[0]))
	t1 := fpm.Time(fast, float64(res.Parts[1]))
	if t1 <= t0 {
		t.Fatalf("expected imbalanced optimum, got t0=%v t1=%v", t0, t1)
	}
}

func TestLoadImbalanceMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		models := make([]fpm.Model, 3)
		for i := range models {
			pts := make([]fpm.Point, 6)
			for j := range pts {
				pts[j] = fpm.Point{W: float64(j * 20), S: rng.Float64()*9 + 1}
			}
			m, err := fpm.NewTable(pts)
			if err != nil {
				t.Fatal(err)
			}
			models[i] = m
		}
		total := 100
		got, err := LoadImbalance(total, models, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := BruteForceMinMax(total, models, 10)
		if err != nil {
			t.Fatal(err)
		}
		if sum(got.Parts) != total {
			t.Fatalf("trial %d: sum %d", trial, sum(got.Parts))
		}
		if got.Time > want.Time*1.0001 {
			t.Fatalf("trial %d: DP time %v worse than brute force %v (parts %v vs %v)",
				trial, got.Time, want.Time, got.Parts, want.Parts)
		}
	}
}

func TestLoadImbalanceValidation(t *testing.T) {
	m := []fpm.Model{fpm.Constant{S: 1}}
	if _, err := LoadImbalance(10, nil, 1); err == nil {
		t.Fatal("no models must fail")
	}
	if _, err := LoadImbalance(-1, m, 1); err == nil {
		t.Fatal("negative total must fail")
	}
	if _, err := LoadImbalance(10, m, 0); err == nil {
		t.Fatal("zero granularity must fail")
	}
	if _, err := LoadImbalance(10, []fpm.Model{nil}, 1); err == nil {
		t.Fatal("nil model must fail")
	}
	res, err := LoadImbalance(0, m, 1)
	if err != nil || res.Parts[0] != 0 {
		t.Fatal("zero total must give zero parts")
	}
}

// Property: Proportional always sums to total and deviates from the ideal
// share by less than 1 unit per processor.
func TestQuickProportionalSumsAndBounds(t *testing.T) {
	f := func(seed int64, total16 uint16, p8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		total := int(total16)
		p := int(p8%8) + 1
		speeds := make([]float64, p)
		var ssum float64
		for i := range speeds {
			speeds[i] = rng.Float64()*10 + 0.1
			ssum += speeds[i]
		}
		parts, err := Proportional(total, speeds)
		if err != nil {
			return false
		}
		if sum(parts) != total {
			return false
		}
		for i := range parts {
			ideal := float64(total) * speeds[i] / ssum
			if float64(parts[i]) < ideal-1.0001 || float64(parts[i]) > ideal+1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: LoadImbalance distributions sum to the total and never exceed
// the max-time of the even split (it can only improve on it, up to one
// granularity of slack).
func TestQuickLoadImbalanceNoWorseThanEven(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(3) + 2
		models := make([]fpm.Model, p)
		for i := range models {
			pts := make([]fpm.Point, 5)
			for j := range pts {
				pts[j] = fpm.Point{W: float64(j * 25), S: rng.Float64()*5 + 0.5}
			}
			m, err := fpm.NewTable(pts)
			if err != nil {
				return false
			}
			models[i] = m
		}
		total := 100
		res, err := LoadImbalance(total, models, 5)
		if err != nil || sum(res.Parts) != total {
			return false
		}
		// Compare against the even distribution (grid-aligned).
		evenMax := 0.0
		each := total / p
		for i, m := range models {
			w := each
			if i == p-1 {
				w = total - each*(p-1)
			}
			if t := fpm.Time(m, float64(w)); t > evenMax {
				evenMax = t
			}
		}
		// One unit of granularity slack for the remainder transfer.
		worstUnit := 0.0
		for _, m := range models {
			if t := fpm.Time(m, 5); t > worstUnit {
				worstUnit = t
			}
		}
		return res.Time <= evenMax+worstUnit+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
