// Package device models the abstract processors of the paper's platform.
//
// The paper's experiments run on HCLServer1 (Table I): a dual-socket Intel
// Haswell E5-2670v3 CPU, an Nvidia K40c GPU, and an Intel Xeon Phi 3120P,
// exposed to the application as three abstract processors — AbsCPU (22 CPU
// cores), AbsGPU (K40c + dedicated host core), AbsXeonPhi (Phi 3120P +
// dedicated host core). Execution times of the accelerator kernels include
// host↔device transfers over their PCIe links.
//
// Here each abstract processor is a Device: a speed function of workload
// (its FPM), a theoretical peak, a memory capacity that triggers
// out-of-core execution, a PCIe link, and a dynamic power rating. These are
// the only properties the paper's algorithms consume, so a Device is a
// faithful stand-in for the real hardware in both partitioning and
// simulated execution.
package device

import (
	"fmt"
	"math"

	"repro/internal/fpm"
	"repro/internal/hockney"
)

// Device is one abstract processor.
type Device struct {
	// Name identifies the device in reports ("AbsCPU", ...).
	Name string
	// PeakGFLOPS is the theoretical double-precision peak.
	PeakGFLOPS float64
	// MemBytes is the memory available for matrix data; beyond it the
	// device computes out-of-core.
	MemBytes int64
	// PCIe is the host link; zero value means the device is the host
	// itself (no transfer stage).
	PCIe hockney.Link
	// DynamicPowerW is the additional power the device draws when
	// executing the PMM kernel at full load (on top of platform static
	// power).
	DynamicPowerW float64
	// Speed is the device's FPM: GFLOPS as a function of the workload
	// area (elements of the C partition it owns; a full square problem of
	// size x is area x²).
	Speed fpm.Model
}

// Accelerator reports whether the device sits behind a PCIe link.
func (d *Device) Accelerator() bool { return d.PCIe != (hockney.Link{}) }

// GFLOPS returns the modelled speed at C-partition area `area`.
func (d *Device) GFLOPS(area float64) float64 { return d.Speed.Speed(area) }

// ComputeTime returns the modelled kernel time in seconds for computing a
// C partition of `area` elements with inner dimension n (2·area·n flops),
// at the speed the FPM predicts for that area.
func (d *Device) ComputeTime(area float64, n int) float64 {
	if area <= 0 {
		return 0
	}
	g := d.GFLOPS(area)
	if g <= 0 {
		return math.Inf(1)
	}
	return 2 * area * float64(n) / (g * 1e9)
}

// Platform is a set of abstract processors sharing a node.
type Platform struct {
	// Name of the machine.
	Name string
	// Devices in rank order (rank i of the MPI world runs on Devices[i]).
	Devices []*Device
	// StaticPowerW is the idle power of the whole platform (the paper
	// measures 230 W for HCLServer1 with fans pinned at full speed).
	StaticPowerW float64
	// Interconnect is the MPI-level link between abstract processors.
	Interconnect hockney.Link
}

// P returns the number of abstract processors.
func (pl *Platform) P() int { return len(pl.Devices) }

// TheoreticalPeakGFLOPS sums the device peaks — the paper's 2.5 TFLOPS
// denominator for its 80 %/70 % headline numbers.
func (pl *Platform) TheoreticalPeakGFLOPS() float64 {
	var s float64
	for _, d := range pl.Devices {
		s += d.PeakGFLOPS
	}
	return s
}

// Speeds returns the devices' speeds at the given C-partition area, the
// vector the CPM partitioning consumes.
func (pl *Platform) Speeds(area float64) []float64 {
	out := make([]float64, len(pl.Devices))
	for i, d := range pl.Devices {
		out[i] = d.GFLOPS(area)
	}
	return out
}

// Validate checks the platform is usable.
func (pl *Platform) Validate() error {
	if len(pl.Devices) == 0 {
		return fmt.Errorf("device: platform %q has no devices", pl.Name)
	}
	for i, d := range pl.Devices {
		if d == nil {
			return fmt.Errorf("device: platform %q device %d is nil", pl.Name, i)
		}
		if d.Speed == nil {
			return fmt.Errorf("device: %s has no speed model", d.Name)
		}
		if d.PeakGFLOPS <= 0 {
			return fmt.Errorf("device: %s has non-positive peak", d.Name)
		}
		if err := d.PCIe.Validate(); err != nil {
			return fmt.Errorf("device: %s PCIe: %w", d.Name, err)
		}
	}
	if pl.StaticPowerW < 0 {
		return fmt.Errorf("device: negative static power %v", pl.StaticPowerW)
	}
	return pl.Interconnect.Validate()
}

// PlatformByName returns the named platform preset: "hclserver1" (three
// processors) or "hclserver2" (four), the values of the service binaries'
// -platform flags.
func PlatformByName(name string) (*Platform, error) {
	switch name {
	case "hclserver1":
		return HCLServer1(), nil
	case "hclserver2":
		return HCLServer2(), nil
	}
	return nil, fmt.Errorf("unknown platform %q (valid: hclserver1, hclserver2)", name)
}
