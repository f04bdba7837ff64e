package energy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFreqLevelValidate(t *testing.T) {
	good := FreqLevel{Name: "f1", SpeedScale: 1, PowerW: 100}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []FreqLevel{
		{SpeedScale: 0, PowerW: 1},
		{SpeedScale: -1, PowerW: 1},
		{SpeedScale: 1, PowerW: -1},
		{SpeedScale: math.NaN(), PowerW: 1},
		{SpeedScale: 1, PowerW: math.Inf(1)},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Fatalf("level %+v should fail", l)
		}
	}
}

func TestDefaultLevelsCubicLaw(t *testing.T) {
	levels := DefaultLevels(100)
	if len(levels) != 4 {
		t.Fatalf("got %d levels", len(levels))
	}
	top := levels[len(levels)-1]
	if top.SpeedScale != 1.0 || top.PowerW != 100 {
		t.Fatalf("nominal level wrong: %+v", top)
	}
	for _, l := range levels {
		want := 100 * l.SpeedScale * l.SpeedScale * l.SpeedScale
		if math.Abs(l.PowerW-want) > 1e-9 {
			t.Fatalf("cubic law violated at %+v", l)
		}
	}
}

func TestParetoFrontTwoDevices(t *testing.T) {
	ops := []Operating{
		{NominalSeconds: 10, Levels: DefaultLevels(100)},
		{NominalSeconds: 5, Levels: DefaultLevels(200)},
	}
	front, err := ParetoFront(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("front too small: %d", len(front))
	}
	// Front is sorted by time with strictly decreasing energy.
	for i := 1; i < len(front); i++ {
		if front[i].TimeSeconds < front[i-1].TimeSeconds {
			t.Fatal("front not sorted by time")
		}
		if front[i].DynamicJoules >= front[i-1].DynamicJoules {
			t.Fatal("front energy not strictly decreasing")
		}
	}
	// The fastest point runs everything at nominal frequency.
	fastest := front[0]
	if fastest.TimeSeconds != 10 {
		t.Fatalf("fastest time %v, want 10 (nominal)", fastest.TimeSeconds)
	}
	// Slack exploitation: device 1 finishes in 5 s at nominal, so it can
	// be slowed (saving energy) without extending the 10 s makespan —
	// the fastest Pareto point must therefore not run device 1 at
	// nominal power.
	lv1 := ops[1].Levels[fastest.LevelIdx[1]]
	if lv1.SpeedScale >= 1.0 {
		t.Fatalf("device 1 should be slowed to exploit slack, got %+v", lv1)
	}
	// The slowest point runs everything at the lowest level, and its energy
	// is below nominal (the cubic law wins over the longer runtime:
	// E ∝ f³·t = f³/f·t_nom = f²·t_nom).
	slowest := front[len(front)-1]
	for i, idx := range slowest.LevelIdx {
		if ops[i].Levels[idx].SpeedScale != 0.6 {
			t.Fatalf("slowest point should run every device at the lowest level, got %v", slowest.LevelIdx)
		}
	}
	if nominal := evaluate(ops, []int{3, 3}); slowest.DynamicJoules >= nominal.DynamicJoules {
		t.Fatalf("slow level energy %v should beat nominal %v", slowest.DynamicJoules, nominal.DynamicJoules)
	}
}

func TestParetoValidation(t *testing.T) {
	if _, err := ParetoFront(nil); err == nil {
		t.Fatal("no devices must fail")
	}
	if _, err := ParetoFront([]Operating{{NominalSeconds: 1}}); err == nil {
		t.Fatal("no levels must fail")
	}
	if _, err := ParetoFront([]Operating{{NominalSeconds: -1, Levels: DefaultLevels(10)}}); err == nil {
		t.Fatal("negative time must fail")
	}
	if _, err := ParetoFront([]Operating{{NominalSeconds: 1, Levels: []FreqLevel{{SpeedScale: 0}}}}); err == nil {
		t.Fatal("invalid level must fail")
	}
}

// Property: every Pareto point dominates or ties every exhaustive choice
// in at least one objective (no front point is dominated).
func TestQuickParetoNotDominated(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Intn(3) + 1
		ops := make([]Operating, p)
		for i := range ops {
			ops[i] = Operating{
				NominalSeconds: rng.Float64()*10 + 0.1,
				Levels:         DefaultLevels(rng.Float64()*200 + 10),
			}
		}
		front, err := ParetoFront(ops)
		if err != nil {
			return false
		}
		// Check pairwise non-domination inside the front.
		for i := range front {
			for j := range front {
				if i == j {
					continue
				}
				if front[j].TimeSeconds <= front[i].TimeSeconds &&
					front[j].DynamicJoules < front[i].DynamicJoules-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
