package energy

import (
	"fmt"
	"math"
	"sort"
)

// The paper leaves dynamic-energy optimality of the partition shapes as
// "a subject for our current research". This file provides the natural
// follow-up machinery: DVFS (dynamic voltage and frequency scaling) models
// per device and the bi-objective performance/energy analysis used in the
// authors' later work — selecting per-device frequency levels that trade
// execution time against dynamic energy for a fixed workload distribution.

// FreqLevel is one DVFS operating point of a device.
type FreqLevel struct {
	// Name of the level (e.g. "1.2GHz").
	Name string
	// SpeedScale multiplies the device's base speed (1.0 = nominal).
	SpeedScale float64
	// PowerW is the device's dynamic power at this level.
	PowerW float64
}

// Validate checks the level is physically meaningful.
func (f FreqLevel) Validate() error {
	if f.SpeedScale <= 0 || math.IsNaN(f.SpeedScale) || math.IsInf(f.SpeedScale, 0) {
		return fmt.Errorf("energy: level %q has invalid speed scale %v", f.Name, f.SpeedScale)
	}
	if f.PowerW < 0 || math.IsNaN(f.PowerW) || math.IsInf(f.PowerW, 0) {
		return fmt.Errorf("energy: level %q has invalid power %v", f.Name, f.PowerW)
	}
	return nil
}

// DefaultLevels returns a typical four-point DVFS ladder for a device with
// the given nominal dynamic power, using the classic cubic
// power-frequency relation P ∝ f³.
func DefaultLevels(nominalPowerW float64) []FreqLevel {
	scales := []struct {
		name string
		s    float64
	}{
		{"f0.6", 0.6}, {"f0.75", 0.75}, {"f0.9", 0.9}, {"f1.0", 1.0},
	}
	levels := make([]FreqLevel, len(scales))
	for i, sc := range scales {
		levels[i] = FreqLevel{
			Name:       sc.name,
			SpeedScale: sc.s,
			PowerW:     nominalPowerW * sc.s * sc.s * sc.s,
		}
	}
	return levels
}

// Operating describes one device's share of a PMM under a chosen level:
// its nominal kernel time and the level applied to it.
type Operating struct {
	// NominalSeconds is the device's compute time at SpeedScale = 1.
	NominalSeconds float64
	// Levels available on the device.
	Levels []FreqLevel
}

// Choice is one point of the time/energy tradeoff.
type Choice struct {
	// LevelIdx[i] selects Operating[i].Levels[LevelIdx[i]].
	LevelIdx []int
	// TimeSeconds is the parallel computation time (max over devices).
	TimeSeconds float64
	// DynamicJoules is the total dynamic energy.
	DynamicJoules float64
}

// evaluate computes (T, E) for a level assignment.
func evaluate(ops []Operating, idx []int) Choice {
	c := Choice{LevelIdx: append([]int(nil), idx...)}
	for i, op := range ops {
		lv := op.Levels[idx[i]]
		t := op.NominalSeconds / lv.SpeedScale
		if t > c.TimeSeconds {
			c.TimeSeconds = t
		}
		c.DynamicJoules += lv.PowerW * t
	}
	return c
}

// ParetoFront enumerates every level combination and returns the Pareto
// frontier of (time, dynamic energy), sorted by increasing time. The
// search space is Π|Levels_i| — exhaustive enumeration is exact and cheap
// for node-scale device counts.
func ParetoFront(ops []Operating) ([]Choice, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("energy: no devices")
	}
	combos := 1
	for i, op := range ops {
		if len(op.Levels) == 0 {
			return nil, fmt.Errorf("energy: device %d has no levels", i)
		}
		if op.NominalSeconds < 0 {
			return nil, fmt.Errorf("energy: device %d has negative time", i)
		}
		for _, lv := range op.Levels {
			if err := lv.Validate(); err != nil {
				return nil, err
			}
		}
		combos *= len(op.Levels)
		if combos > 1<<22 {
			return nil, fmt.Errorf("energy: level space too large (%d combos)", combos)
		}
	}
	idx := make([]int, len(ops))
	var all []Choice
	for {
		all = append(all, evaluate(ops, idx))
		// Odometer increment.
		k := 0
		for k < len(ops) {
			idx[k]++
			if idx[k] < len(ops[k].Levels) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == len(ops) {
			break
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].TimeSeconds != all[j].TimeSeconds {
			return all[i].TimeSeconds < all[j].TimeSeconds
		}
		return all[i].DynamicJoules < all[j].DynamicJoules
	})
	var front []Choice
	bestE := math.Inf(1)
	for _, c := range all {
		if c.DynamicJoules < bestE-1e-12 {
			front = append(front, c)
			bestE = c.DynamicJoules
		}
	}
	return front, nil
}
