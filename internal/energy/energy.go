// Package energy reproduces the paper's energy methodology (Section VI-C):
// a WattsUp Pro meter between the wall socket and the platform samples
// total power at 1 Hz, and dynamic energy is obtained as
//
//	E_D = E_T − P_S · T_E
//
// where E_T is the total measured energy, P_S the platform's static power
// (230 W on HCLServer1, fans pinned at full speed), and T_E the execution
// time.
//
// The meter here is a simulation: it integrates a power timeline derived
// from the execution trace — static power plus each device's dynamic power
// while that device is computing — then samples it exactly like the
// physical meter (1 sample/second, ±3 % accuracy, 0.5 W floor).
package energy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/device"
	"repro/internal/trace"
)

// ExactDynamicEnergy integrates device dynamic power over the compute
// intervals of the trace: the ground truth the meter approximates.
// Rank r's events are attributed to platform device r.
func ExactDynamicEnergy(pl *device.Platform, tl *trace.Timeline) (joules float64, err error) {
	for _, e := range tl.Events() {
		if e.Kind != trace.Compute {
			continue
		}
		if e.Rank < 0 || e.Rank >= pl.P() {
			return 0, fmt.Errorf("energy: event rank %d outside platform of %d devices", e.Rank, pl.P())
		}
		joules += pl.Devices[e.Rank].DynamicPowerW * e.Duration()
	}
	return joules, nil
}

// Meter simulates the WattsUp Pro: SamplePeriod of 1 s, multiplicative
// accuracy of ±3 %, and a minimum measurable power of 0.5 W.
type Meter struct {
	// SamplePeriod between samples; the physical meter's fastest rate is
	// one sample per second.
	SamplePeriod float64
	// Accuracy is the relative error bound (datasheet: 0.03).
	Accuracy float64
	// MinPower is the measurement floor in watts (datasheet: 0.5).
	MinPower float64
	// Rng drives the deterministic noise; nil disables noise.
	Rng *rand.Rand
}

// NewWattsUpPro returns a meter with the datasheet parameters and the
// given noise source.
func NewWattsUpPro(rng *rand.Rand) *Meter {
	return &Meter{SamplePeriod: 1, Accuracy: 0.03, MinPower: 0.5, Rng: rng}
}

// Measurement is the result of metering one application run.
type Measurement struct {
	// TotalJoules is E_T over the run.
	TotalJoules float64
	// DurationSeconds is T_E.
	DurationSeconds float64
	// DynamicJoules is E_D per the paper's formula.
	DynamicJoules float64
	// Samples is the sampled total power series (watts).
	Samples []float64
}

// powerStep is a point where total power changes.
type powerStep struct {
	t float64
	d float64 // power delta at t
}

// Measure meters a run described by the trace on the platform: it builds
// the total power timeline, samples it, integrates E_T, and subtracts
// static energy. The run spans [0, T_E] where T_E is the latest event end.
func (m *Meter) Measure(pl *device.Platform, tl *trace.Timeline) (Measurement, error) {
	if m.SamplePeriod <= 0 {
		return Measurement{}, fmt.Errorf("energy: sample period %v must be positive", m.SamplePeriod)
	}
	var steps []powerStep
	var tEnd float64
	for _, e := range tl.Events() {
		if e.End > tEnd {
			tEnd = e.End
		}
		if e.Kind != trace.Compute {
			continue
		}
		if e.Rank < 0 || e.Rank >= pl.P() {
			return Measurement{}, fmt.Errorf("energy: event rank %d outside platform of %d devices", e.Rank, pl.P())
		}
		p := pl.Devices[e.Rank].DynamicPowerW
		steps = append(steps, powerStep{t: e.Start, d: p}, powerStep{t: e.End, d: -p})
	}
	meas := Measurement{DurationSeconds: tEnd}
	if tEnd == 0 {
		return meas, nil
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].t < steps[j].t })

	// Sample the instantaneous power at the middle of each period, like a
	// meter latching its current reading.
	power := func(t float64) float64 {
		p := pl.StaticPowerW
		for _, s := range steps {
			if s.t > t {
				break
			}
			p += s.d
		}
		return p
	}
	nSamples := int(math.Ceil(tEnd / m.SamplePeriod))
	var total float64
	for i := 0; i < nSamples; i++ {
		// Latch the reading at the midpoint of the (possibly partial
		// final) period.
		hi := float64(i+1) * m.SamplePeriod
		if hi > tEnd {
			hi = tEnd
		}
		t := (float64(i)*m.SamplePeriod + hi) / 2
		p := power(t)
		if m.Rng != nil && m.Accuracy > 0 {
			p *= 1 + m.Accuracy*(2*m.Rng.Float64()-1)
		}
		if p < m.MinPower {
			p = m.MinPower
		}
		meas.Samples = append(meas.Samples, p)
		// The final period may be partial.
		period := m.SamplePeriod
		if end := float64(i+1) * m.SamplePeriod; end > tEnd {
			period = tEnd - float64(i)*m.SamplePeriod
		}
		total += p * period
	}
	meas.TotalJoules = total
	meas.DynamicJoules = total - pl.StaticPowerW*tEnd
	return meas, nil
}
