package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/partition"
)

// testPlatform is a three-device constant-speed platform with plenty of
// memory, the planner's default fixture.
func testPlatform(memBytes int64) *device.Platform {
	mk := func(name string, speed float64) *device.Device {
		return &device.Device{
			Name:          name,
			PeakGFLOPS:    speed,
			MemBytes:      memBytes,
			DynamicPowerW: 10,
			Speed:         fpm.Constant{S: speed},
		}
	}
	return &device.Platform{
		Name:    "sched-test",
		Devices: []*device.Device{mk("d0", 1.0), mk("d1", 2.0), mk("d2", 0.9)},
	}
}

func newTestPlanner() *Planner {
	return &Planner{Platform: testPlatform(1 << 40)}
}

func TestPlannerAutoPicksMinimumVolumeShape(t *testing.T) {
	p := newTestPlanner()
	plan, err := p.Plan(JobSpec{N: 64, Shape: "auto", Speeds: []float64{1, 2, 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Layout == nil || plan.Layout.N != 64 || plan.Layout.P != 3 {
		t.Fatalf("bad layout: %+v", plan.Layout)
	}
	if plan.Shape == "" || plan.OptimalityRatio < 1 {
		t.Fatalf("plan metadata incomplete: %+v", plan)
	}
	if len(plan.MemPerRankBytes) != 3 {
		t.Fatalf("MemPerRankBytes = %v", plan.MemPerRankBytes)
	}
	for r, m := range plan.MemPerRankBytes {
		if m <= 0 {
			t.Fatalf("rank %d memory estimate = %d", r, m)
		}
	}
}

// TestPlannerAutoPlanAtMaxN: a plan-cache miss on shape auto runs on a
// scheduler worker slot, so at serve's largest N (-max-n, 4096) it must
// take well under a second. Building every candidate layout took 32 s and
// 800 M allocations there.
func TestPlannerAutoPlanAtMaxN(t *testing.T) {
	p := newTestPlanner()
	done := make(chan error, 1)
	go func() {
		_, err := p.Plan(JobSpec{N: 4096, Shape: "auto", Speeds: []float64{1, 2, 0.9}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("an auto plan at N=4096 took over a second")
	}
}

func TestPlannerNamedShapeCaseInsensitive(t *testing.T) {
	p := newTestPlanner()
	plan, err := p.Plan(JobSpec{N: 48, Shape: "Square-Corner"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shape != "square-corner" {
		t.Fatalf("Shape = %q", plan.Shape)
	}
}

func TestPlannerUnknownShapeTypedError(t *testing.T) {
	p := newTestPlanner()
	_, err := p.Plan(JobSpec{N: 48, Shape: "pentagon"})
	var ue *partition.UnknownShapeError
	if !errors.As(err, &ue) {
		t.Fatalf("want *partition.UnknownShapeError, got %T: %v", err, err)
	}
}

func TestPlannerColumnBasedForFourDevices(t *testing.T) {
	p := &Planner{Platform: device.HCLServer2()}
	plan, err := p.Plan(JobSpec{N: 64, Shape: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shape != "column-based" || plan.Layout.P != 4 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestPlannerMemoryAdmission(t *testing.T) {
	// 1 KiB per device: even a 16×16 problem cannot fit.
	p := &Planner{Platform: testPlatform(1 << 10)}
	_, err := p.Plan(JobSpec{N: 16, Shape: "square-corner"})
	var me *MemoryError
	if !errors.As(err, &me) {
		t.Fatalf("want *MemoryError, got %T: %v", err, err)
	}
}

func TestPlannerFPMAreas(t *testing.T) {
	p := &Planner{Platform: device.HCLServer1()}
	plan, err := p.Plan(JobSpec{N: 64, Shape: "auto", UseFPM: true})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, a := range plan.Areas {
		if a <= 0 {
			t.Fatalf("areas = %v: every rank needs a positive share", plan.Areas)
		}
		total += a
	}
	if total != 64*64 {
		t.Fatalf("areas sum to %d, want %d", total, 64*64)
	}
}

func TestPlannerCacheSharesPlans(t *testing.T) {
	p := newTestPlanner()
	spec := JobSpec{N: 32, Shape: "block-rectangle", Seed: 1}
	p1, err := p.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 999 // seed is not part of the plan key
	p2, err := p.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("equal plan keys must share one cached plan")
	}
	if PlanKey(JobSpec{N: 32, Shape: "Block-Rectangle"}) != PlanKey(JobSpec{N: 32, Shape: "block-rectangle"}) {
		t.Fatal("plan key must be case-insensitive in the shape name")
	}
}

// TestPlanCacheEvictsOne: a new key at the cache's bound evicts one plan,
// not all of them, so every other plan still hits.
func TestPlanCacheEvictsOne(t *testing.T) {
	p := newTestPlanner()
	spec := func(n int) JobSpec { return JobSpec{N: n, Shape: "1d-rectangle"} }
	for n := 16; n < 16+maxPlanCache; n++ {
		if _, err := p.Plan(spec(n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Plan(spec(16 + maxPlanCache)); err != nil {
		t.Fatal(err)
	}
	kept := 0
	for n := 16; n < 16+maxPlanCache; n++ {
		if _, ok := p.cache[PlanKey(spec(n))]; ok {
			kept++
		}
	}
	if kept != maxPlanCache-1 {
		t.Fatalf("%d of the %d earlier plans still cached, want %d", kept, maxPlanCache, maxPlanCache-1)
	}
	hits, _ := p.CacheStats()
	if _, err := p.Plan(spec(16 + maxPlanCache)); err != nil {
		t.Fatal(err)
	}
	if h, _ := p.CacheStats(); h != hits+1 {
		t.Fatal("the newest plan must hit")
	}
}

func TestPlannerSpeedsMustMatchPlatform(t *testing.T) {
	p := newTestPlanner()
	if _, err := p.Plan(JobSpec{N: 32, Speeds: []float64{1, 2}}); err == nil {
		t.Fatal("2 speeds for a 3-device platform must be rejected")
	}
}

// TestPlanKeyTable pins plan keys byte for byte: they are the plan-cache and
// router-affinity identity of a job, so a key must not change with how it is
// built.
func TestPlanKeyTable(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{N: 64}, "n=64|shape=auto|fpm=false|speeds="},
		{JobSpec{N: 64, Shape: " AUTO "}, "n=64|shape=auto|fpm=false|speeds="},
		{JobSpec{N: 512, Shape: "Square-Corner"}, "n=512|shape=square-corner|fpm=false|speeds="},
		{JobSpec{N: 128, Shape: "1d-rectangle"}, "n=128|shape=1d-rectangle|fpm=false|speeds="},
		{JobSpec{N: 96, Shape: "column-based"}, "n=96|shape=column-based|fpm=false|speeds="},
		{JobSpec{N: 4096, Shape: "block-rectangle", UseFPM: true}, "n=4096|shape=block-rectangle|fpm=true|speeds="},
		{JobSpec{N: 256, Speeds: []float64{1, 0.9, 1e-05, 2.5e+10}}, "n=256|shape=auto|fpm=false|speeds=1,0.9,1e-05,2.5e+10,"},
		{JobSpec{N: 32, Shape: "square-rectangle", UseFPM: true, Speeds: []float64{1, 2, 0.9}}, "n=32|shape=square-rectangle|fpm=true|speeds=1,2,0.9,"},
		{JobSpec{N: 48, Speeds: []float64{0.30000000000000004, 1.0 / 3, 123456789, 1e21}}, "n=48|shape=auto|fpm=false|speeds=0.30000000000000004,0.3333333333333333,1.23456789e+08,1e+21,"},
	} {
		if got := PlanKey(tc.spec); got != tc.want {
			t.Errorf("PlanKey(%+v) = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

func TestReplanShapePolicy(t *testing.T) {
	// Three survivors: the exact minimum-communication search applies.
	layout, shape, err := replan(48, []float64{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if layout.P != 3 || layout.N != 48 {
		t.Fatalf("layout = P%d N%d", layout.P, layout.N)
	}
	if shape == "" || shape == "column-based" {
		t.Fatalf("3 survivors should get an optimal shape, got %q", shape)
	}
	// Two survivors: column-based is the only family.
	layout, shape, err = replan(48, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if layout.P != 2 || shape != "column-based" {
		t.Fatalf("2 survivors: shape %q P %d", shape, layout.P)
	}
	// Sole survivor: one cell owns everything.
	layout, _, err = replan(48, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if layout.P != 1 || layout.Areas()[0] != 48*48 {
		t.Fatalf("sole survivor areas = %v", layout.Areas())
	}
	// Every replan must cover C exactly.
	layout, _, _ = replan(30, []float64{5, 1, 1, 1})
	total := 0
	for _, a := range layout.Areas() {
		total += a
	}
	if total != 30*30 {
		t.Fatalf("areas sum %d != %d", total, 30*30)
	}
	if _, _, err := replan(10, nil); err == nil {
		t.Fatal("no survivors must be an error")
	}
}

// TestReplanThreeSurvivorsAtMaxN: three survivors replan with the exact
// shape search, which must not hold a recovering job for long even at
// serve's largest N (-max-n, 4096).
func TestReplanThreeSurvivorsAtMaxN(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		layout, shape, err := replan(4096, []float64{1, 2, 0.9})
		if err == nil && (layout.P != 3 || shape == "column-based") {
			err = fmt.Errorf("replan gave %q over %d ranks, want an exact three-rank shape", shape, layout.P)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a three-survivor replan at N=4096 took over a second")
	}
}

// replan runs the planner's survivor path at the default tolerance and
// returns the layout and shape name.
func replan(n int, speeds []float64) (*partition.Layout, string, error) {
	plan, err := (&Planner{}).replan(n, speeds)
	if err != nil {
		return nil, "", err
	}
	return plan.Layout, plan.Shape, nil
}

// TestPlannerConcurrentMissPlansOnce: callers that ask for one new key at
// once share one plan. The first counts the only miss and plans; the others
// count hits and wait for it. The plan's speed model holds the plan until
// every caller has been counted.
func TestPlannerConcurrentMissPlansOnce(t *testing.T) {
	const callers = 8
	gate := &gatedSpeed{release: make(chan struct{})}
	pl := testPlatform(1 << 40)
	for _, d := range pl.Devices {
		d.Speed = gate
	}
	p := &Planner{Platform: pl}
	spec := JobSpec{N: 64, Shape: "1d-rectangle", UseFPM: true}
	plans := make([]*Plan, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], errs[i] = p.Plan(spec)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if hits, misses := p.CacheStats(); hits+misses == callers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("not every caller reached the planner within 10 s")
		}
	}
	close(gate.release)
	wg.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d got plan %p, caller 0 got %p", i, plans[i], plans[0])
		}
	}
	if hits, misses := p.CacheStats(); hits != callers-1 || misses != 1 {
		t.Fatalf("%d concurrent callers of one new key counted %d hits and %d misses, want %d and 1", callers, hits, misses, callers-1)
	}
}

// gatedSpeed is a speed of 1 at every workload that answers only once
// release is closed.
type gatedSpeed struct{ release chan struct{} }

func (g *gatedSpeed) Speed(float64) float64 {
	<-g.release
	return 1
}
