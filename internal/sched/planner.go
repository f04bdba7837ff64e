package sched

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/partition"
)

// Plan is the partition decision for a job: the shape, the layout built
// from it, and the admission metadata. Plans are immutable and shared,
// through the planner's cache, by every job with the same plan key.
type Plan struct {
	// Shape is the canonical name of the chosen shape ("square-corner",
	// "column-based", …).
	Shape string
	// Layout is the partitioning the engine executes.
	Layout *partition.Layout
	// Areas are the realized per-rank workloads (elements of C).
	Areas []int
	// OptimalityRatio scores the layout against the communication lower
	// bound (>= 1).
	OptimalityRatio float64
	// MemPerRankBytes is each rank's memory estimate from the paper's
	// model — the quantity the admission check compared to device memory.
	MemPerRankBytes []int64
}

// MemoryError is the planner's admission rejection: the layout does not
// fit the platform's device memories (the paper's out-of-core threshold).
// Servers map it to 413/422-style permanent rejections, not retries.
type MemoryError struct{ Err error }

func (e *MemoryError) Error() string { return e.Err.Error() }
func (e *MemoryError) Unwrap() error { return e.Err }

// Planner picks partition shapes and areas for job specs and enforces the
// memory admission check. It caches plans by PlanKey, so jobs with equal
// keys plan once, even when they ask at the same time; the cache is safe for
// concurrent use.
type Planner struct {
	// Platform supplies the device models for speeds, FPM partitioning
	// and the memory check (required).
	Platform *device.Platform
	// Tol is the OptimalShape area tolerance (<= 0 defaults to 2N).
	Tol int

	mu     sync.Mutex
	cache  map[string]*cachedPlan
	hits   uint64
	misses uint64
}

// cachedPlan is one key's plan; done is closed once plan and err are set.
// The entry is cached before it is planned, so callers that find it while
// it is planned wait for that plan instead of planning again.
type cachedPlan struct {
	plan *Plan
	err  error
	done chan struct{}
}

// maxPlanCache bounds the cache; at the bound one plan is evicted per new
// key, as core evicts one of as many compiled layouts, one per plan
// (core.maxSchedules).
const maxPlanCache = 512

// PlanKey is the plan-cache and affinity key of a spec: two jobs with
// equal keys share a plan, and a plan-key-affine router sends them to the
// same instance. Seed and Verify deliberately do not participate.
func PlanKey(spec JobSpec) string {
	b := make([]byte, 0, 64)
	b = append(b, "n="...)
	b = strconv.AppendInt(b, int64(spec.N), 10)
	b = append(b, "|shape="...)
	b = append(b, canonicalShapeName(spec.Shape)...)
	b = append(b, "|fpm="...)
	b = strconv.AppendBool(b, spec.UseFPM)
	b = append(b, "|speeds="...)
	for _, v := range spec.Speeds {
		b = strconv.AppendFloat(b, v, 'g', -1, 64) // what %g prints
		b = append(b, ',')
	}
	return string(b)
}

// canonicalShapeName lower-cases and normalizes the auto aliases.
func canonicalShapeName(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return "auto"
	}
	return name
}

// Plan resolves a spec to a plan, consulting the cache first. The first
// caller of a key counts a miss and plans it; every other caller counts a
// hit, and one that comes while the plan is being made waits for it.
func (p *Planner) Plan(spec JobSpec) (*Plan, error) {
	if p.Platform == nil {
		return nil, fmt.Errorf("sched: planner requires a platform")
	}
	key := PlanKey(spec)
	p.mu.Lock()
	if c, ok := p.cache[key]; ok {
		p.hits++
		p.mu.Unlock()
		<-c.done
		return c.plan, c.err
	}
	p.misses++
	if p.cache == nil {
		p.cache = map[string]*cachedPlan{}
	}
	if len(p.cache) >= maxPlanCache {
		for k := range p.cache { // an arbitrary one; its waiters hold it
			delete(p.cache, k)
			break
		}
	}
	c := &cachedPlan{done: make(chan struct{})}
	p.cache[key] = c
	p.mu.Unlock()

	c.plan, c.err = p.plan(spec)
	close(c.done)
	return c.plan, c.err
}

// CacheStats returns the plan cache's monotonic hit / miss totals. A nil
// planner reports zeros, so callers holding only a sched.Config need no
// guard.
func (p *Planner) CacheStats() (hits, misses uint64) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits, p.misses
}

func (p *Planner) plan(spec JobSpec) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	areas, err := p.areas(spec)
	if err != nil {
		return nil, err
	}
	layout, shape, err := p.layout(spec.N, areas, canonicalShapeName(spec.Shape))
	if err != nil {
		return nil, err
	}
	if err := core.CheckMemory(layout, p.Platform); err != nil {
		return nil, &MemoryError{Err: err}
	}
	return newPlan(layout, shape), nil
}

// replan plans a recovering job over its survivors: speeds holds one
// relative speed per surviving rank, in the new (compacted) rank order. It
// is plan's auto policy one processor down, a single-cell layout for a sole
// survivor, and column-based where no exact three-processor family
// realizes the areas (it realizes any positive areas). It skips the memory
// check: a recovery trades memory headroom for availability.
func (p *Planner) replan(n int, speeds []float64) (*Plan, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("sched: no survivors to replan over")
	}
	areas, err := balance.Proportional(n*n, speeds)
	if err != nil {
		return nil, fmt.Errorf("sched: survivor areas: %w", err)
	}
	balance.Positive(areas)
	layout, shape, err := p.layout(n, areas, "auto")
	if err != nil && len(areas) == 3 {
		layout, shape, err = p.layout(n, areas, "column-based")
	}
	if err != nil {
		return nil, err
	}
	return newPlan(layout, shape), nil
}

// layout builds the named shape (canonical name, or "auto") over areas and
// returns it with its canonical name. Auto is the exact
// minimum-communication search for three processors and column-based for
// any other count.
func (p *Planner) layout(n int, areas []int, shape string) (*partition.Layout, string, error) {
	switch {
	case shape == "auto" && len(areas) == 3:
		best, _, err := partition.OptimalShape(n, areas, p.Tol)
		if err != nil {
			return nil, "", err
		}
		return best.Layout, best.Shape.String(), nil
	case shape == "auto" || shape == "column-based":
		l, err := partition.ColumnBased(n, areas)
		return l, "column-based", err
	}
	sh, err := partition.ParseShape(shape)
	if err != nil {
		return nil, "", err
	}
	l, err := partition.Build(sh, n, areas)
	return l, sh.String(), err
}

// newPlan packages a layout as a Plan.
func newPlan(layout *partition.Layout, shape string) *Plan {
	plan := &Plan{
		Shape:           shape,
		Layout:          layout,
		Areas:           layout.Areas(),
		MemPerRankBytes: make([]int64, layout.P),
	}
	for r := range plan.MemPerRankBytes {
		plan.MemPerRankBytes[r] = core.MemoryEstimate(layout, r)
	}
	if ratio, err := partition.OptimalityRatio(layout); err == nil {
		plan.OptimalityRatio = ratio
	}
	return plan
}

// areas splits the N² workload according to the spec: explicit speeds
// proportionally, otherwise the platform's models (FPM load-imbalancing
// when requested, constant plateau speeds otherwise). Every area is
// positive.
func (p *Planner) areas(spec JobSpec) ([]int, error) {
	n, pl := spec.N, p.Platform
	speeds := spec.Speeds
	switch {
	case len(speeds) > 0:
		if len(speeds) != pl.P() {
			return nil, fmt.Errorf("sched: %d speeds for a %d-device platform", len(speeds), pl.P())
		}
	case spec.UseFPM:
		models := make([]fpm.Model, pl.P())
		for i, d := range pl.Devices {
			models[i] = d.Speed
		}
		areas, err := balance.FPMAreas(n, models)
		return balance.Positive(areas), err
	default:
		speeds = pl.Speeds(float64(n*n) / float64(pl.P()))
	}
	areas, err := balance.Proportional(n*n, speeds)
	return balance.Positive(areas), err
}
