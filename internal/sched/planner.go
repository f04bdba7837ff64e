package sched

import (
	"fmt"
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
// keys plan once; the cache is safe for concurrent use.
type Planner struct {
	// Platform supplies the device models for speeds, FPM partitioning
	// and the memory check (required).
	Platform *device.Platform
	// AllowOOC exempts accelerator ranks from the memory check (the
	// out-of-core execution path).
	AllowOOC bool
	// Tol is the OptimalShape area tolerance (<= 0 defaults to 2N).
	Tol int

	mu     sync.Mutex
	cache  map[string]cachedPlan
	hits   uint64
	misses uint64
}

type cachedPlan struct {
	plan *Plan
	err  error
}

// maxPlanCache bounds the cache; past it the whole map is dropped (plans
// are cheap to recompute and keys are low-cardinality in practice).
const maxPlanCache = 512

// PlanKey is the plan-cache and affinity key of a spec: two jobs with
// equal keys share a plan, and a plan-key-affine router sends them to the
// same instance. Seed and Verify deliberately do not participate.
func PlanKey(spec JobSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d|shape=%s|fpm=%v|speeds=", spec.N, canonicalShapeName(spec.Shape), spec.UseFPM)
	for _, v := range spec.Speeds {
		fmt.Fprintf(&b, "%g,", v)
	}
	return b.String()
}

// canonicalShapeName lower-cases and normalizes the auto aliases.
func canonicalShapeName(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return "auto"
	}
	return name
}

// Plan resolves a spec to a plan, consulting the cache first.
func (p *Planner) Plan(spec JobSpec) (*Plan, error) {
	if p.Platform == nil {
		return nil, fmt.Errorf("sched: planner requires a platform")
	}
	key := PlanKey(spec)
	p.mu.Lock()
	if c, ok := p.cache[key]; ok {
		p.hits++
		p.mu.Unlock()
		return c.plan, c.err
	}
	p.misses++
	p.mu.Unlock()

	plan, err := p.plan(spec)

	p.mu.Lock()
	if p.cache == nil || len(p.cache) >= maxPlanCache {
		p.cache = map[string]cachedPlan{}
	}
	p.cache[key] = cachedPlan{plan, err}
	p.mu.Unlock()
	return plan, err
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
	n := spec.N
	pl := p.Platform
	areas, err := p.areas(spec)
	if err != nil {
		return nil, err
	}

	shapeName := canonicalShapeName(spec.Shape)
	var layout *partition.Layout
	switch shapeName {
	case "auto":
		if len(areas) == 3 {
			best, _, err := partition.OptimalShape(n, areas, p.Tol)
			if err != nil {
				return nil, err
			}
			layout, shapeName = best.Layout, best.Shape.String()
		} else {
			layout, err = partition.ColumnBased(n, areas)
			if err != nil {
				return nil, err
			}
			shapeName = "column-based"
		}
	case "column-based":
		layout, err = partition.ColumnBased(n, areas)
		if err != nil {
			return nil, err
		}
	default:
		shape, err := partition.ParseShape(shapeName)
		if err != nil {
			return nil, err
		}
		shapeName = shape.String()
		layout, err = partition.Build(shape, n, areas)
		if err != nil {
			return nil, err
		}
	}

	if err := core.CheckMemory(layout, pl, p.AllowOOC); err != nil {
		return nil, &MemoryError{Err: err}
	}
	plan := &Plan{
		Shape:           shapeName,
		Layout:          layout,
		Areas:           layout.Areas(),
		MemPerRankBytes: make([]int64, layout.P),
	}
	for r := 0; r < layout.P; r++ {
		plan.MemPerRankBytes[r] = core.MemoryEstimate(layout, r)
	}
	if ratio, err := partition.OptimalityRatio(layout); err == nil {
		plan.OptimalityRatio = ratio
	}
	return plan, nil
}

// areas splits the N² workload according to the spec: explicit speeds
// proportionally, otherwise the platform's models (FPM load-imbalancing
// when requested, constant plateau speeds otherwise).
func (p *Planner) areas(spec JobSpec) ([]int, error) {
	n, pl := spec.N, p.Platform
	var areas []int
	switch {
	case len(spec.Speeds) > 0:
		if len(spec.Speeds) != pl.P() {
			return nil, fmt.Errorf("sched: %d speeds for a %d-device platform", len(spec.Speeds), pl.P())
		}
		a, err := balance.Proportional(n*n, spec.Speeds)
		if err != nil {
			return nil, err
		}
		areas = a
	case spec.UseFPM:
		models := make([]fpm.Model, pl.P())
		for i, d := range pl.Devices {
			models[i] = d.Speed
		}
		gran := n * n / 256
		if gran < 1 {
			gran = 1
		}
		res, err := balance.LoadImbalance(n*n, models, gran)
		if err != nil {
			return nil, err
		}
		areas = res.Parts
	default:
		speeds := pl.Speeds(float64(n*n) / float64(pl.P()))
		a, err := balance.Proportional(n*n, speeds)
		if err != nil {
			return nil, err
		}
		areas = a
	}
	// The shape constructors need every area positive; steal one element
	// from the largest share for any rank rounded down to zero.
	for i := range areas {
		if areas[i] == 0 {
			areas[maxIndex(areas)]--
			areas[i] = 1
		}
	}
	return areas, nil
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
