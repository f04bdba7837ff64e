package energy

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/trace"
)

func testPlatform() *device.Platform {
	mk := func(name string, dyn float64) *device.Device {
		return &device.Device{Name: name, PeakGFLOPS: 1, DynamicPowerW: dyn, Speed: fpm.Constant{S: 1}}
	}
	return &device.Platform{
		Name:         "test",
		Devices:      []*device.Device{mk("a", 100), mk("b", 200), mk("c", 50)},
		StaticPowerW: 230,
	}
}

func TestExactDynamicEnergy(t *testing.T) {
	pl := testPlatform()
	tl := trace.New()
	tl.Add(trace.Event{Rank: 0, Kind: trace.Compute, Start: 0, End: 10}) // 100 W * 10 s
	tl.Add(trace.Event{Rank: 1, Kind: trace.Compute, Start: 0, End: 5})  // 200 W * 5 s
	tl.Add(trace.Event{Rank: 2, Kind: trace.Comm, Start: 0, End: 100})   // ignored
	tl.Add(trace.Event{Rank: 0, Kind: trace.Idle, Start: 10, End: 20})   // ignored
	j, err := ExactDynamicEnergy(pl, tl)
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0*10 + 200*5
	if math.Abs(j-want) > 1e-9 {
		t.Fatalf("exact dynamic energy = %v, want %v", j, want)
	}
}

func TestExactDynamicEnergyBadRank(t *testing.T) {
	pl := testPlatform()
	tl := trace.New()
	tl.Add(trace.Event{Rank: 7, Kind: trace.Compute, Start: 0, End: 1})
	if _, err := ExactDynamicEnergy(pl, tl); err == nil {
		t.Fatal("rank outside platform must fail")
	}
}

func TestMeterNoNoiseMatchesExact(t *testing.T) {
	pl := testPlatform()
	tl := trace.New()
	// All devices busy for exactly 10 s: power is constant
	// 230 + 350 = 580 W; E_T = 5800 J; E_D = 3500 J.
	for r := 0; r < 3; r++ {
		tl.Add(trace.Event{Rank: r, Kind: trace.Compute, Start: 0, End: 10})
	}
	m := &Meter{SamplePeriod: 1} // no noise
	got, err := m.Measure(pl, tl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.TotalJoules-5800) > 1e-9 {
		t.Fatalf("E_T = %v, want 5800", got.TotalJoules)
	}
	if math.Abs(got.DynamicJoules-3500) > 1e-9 {
		t.Fatalf("E_D = %v, want 3500", got.DynamicJoules)
	}
	if got.DurationSeconds != 10 || len(got.Samples) != 10 {
		t.Fatalf("duration %v samples %d", got.DurationSeconds, len(got.Samples))
	}
}

func TestMeterPartialLastSample(t *testing.T) {
	pl := testPlatform()
	tl := trace.New()
	tl.Add(trace.Event{Rank: 0, Kind: trace.Compute, Start: 0, End: 2.5})
	m := &Meter{SamplePeriod: 1}
	got, err := m.Measure(pl, tl)
	if err != nil {
		t.Fatal(err)
	}
	// Power constant 330 W for 2.5 s → 825 J total, 250 J dynamic.
	if math.Abs(got.TotalJoules-825) > 1e-9 {
		t.Fatalf("E_T = %v, want 825", got.TotalJoules)
	}
	if math.Abs(got.DynamicJoules-250) > 1e-9 {
		t.Fatalf("E_D = %v, want 250", got.DynamicJoules)
	}
}

func TestMeterStepChanges(t *testing.T) {
	pl := testPlatform()
	tl := trace.New()
	// Device 1 (200 W) busy only during [0, 1); device 0 (100 W) during
	// [1, 2). Samples at t=0.5 and t=1.5 catch each phase.
	tl.Add(trace.Event{Rank: 1, Kind: trace.Compute, Start: 0, End: 1})
	tl.Add(trace.Event{Rank: 0, Kind: trace.Compute, Start: 1, End: 2})
	m := &Meter{SamplePeriod: 1}
	got, err := m.Measure(pl, tl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 2 || got.Samples[0] != 430 || got.Samples[1] != 330 {
		t.Fatalf("samples = %v", got.Samples)
	}
	if math.Abs(got.DynamicJoules-300) > 1e-9 {
		t.Fatalf("E_D = %v, want 300", got.DynamicJoules)
	}
}

func TestMeterNoiseWithinAccuracy(t *testing.T) {
	pl := testPlatform()
	tl := trace.New()
	for r := 0; r < 3; r++ {
		tl.Add(trace.Event{Rank: r, Kind: trace.Compute, Start: 0, End: 100})
	}
	m := NewWattsUpPro(rand.New(rand.NewSource(1)))
	got, err := m.Measure(pl, tl)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got.Samples {
		if s < 580*0.97-1e-9 || s > 580*1.03+1e-9 {
			t.Fatalf("sample %v outside ±3%% of 580", s)
		}
	}
	// Over 100 samples the noise averages out to well under 1 %.
	if math.Abs(got.DynamicJoules-35000)/35000 > 0.01 {
		t.Fatalf("E_D = %v, want ≈35000", got.DynamicJoules)
	}
}

func TestMeterEmptyTrace(t *testing.T) {
	m := &Meter{SamplePeriod: 1}
	got, err := m.Measure(testPlatform(), trace.New())
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalJoules != 0 || got.DurationSeconds != 0 || len(got.Samples) != 0 {
		t.Fatalf("empty trace: %+v", got)
	}
}

func TestMeterValidation(t *testing.T) {
	m := &Meter{SamplePeriod: 0}
	if _, err := m.Measure(testPlatform(), trace.New()); err == nil {
		t.Fatal("zero sample period must fail")
	}
	tl := trace.New()
	tl.Add(trace.Event{Rank: 9, Kind: trace.Compute, Start: 0, End: 1})
	if _, err := (&Meter{SamplePeriod: 1}).Measure(testPlatform(), tl); err == nil {
		t.Fatal("bad rank must fail")
	}
}

func TestMinPowerFloor(t *testing.T) {
	pl := &device.Platform{
		Devices:      []*device.Device{{Name: "d", PeakGFLOPS: 1, Speed: fpm.Constant{S: 1}, DynamicPowerW: 0}},
		StaticPowerW: 0,
	}
	tl := trace.New()
	tl.Add(trace.Event{Rank: 0, Kind: trace.Compute, Start: 0, End: 2})
	m := &Meter{SamplePeriod: 1, MinPower: 0.5}
	got, err := m.Measure(pl, tl)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got.Samples {
		if s != 0.5 {
			t.Fatalf("sample %v, want floor 0.5", s)
		}
	}
}
