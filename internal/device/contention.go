package device

import "repro/internal/fpm"

// The paper stresses (citing Zhong, Rychkov & Lastovetsky [15]) that on
// tightly integrated hybrid nodes the speed of each abstract processor
// must be measured while all the others execute the same workload
// simultaneously — resource contention (shared memory, QPI, PCIe) lowers
// every device's speed relative to a standalone run. The HCLServer1
// profiles in this package are co-run profiles, as in the paper.
//
// StandaloneHCLServer1 models the naive alternative: profiles measured
// with each device alone on the node, which over-estimate the speeds the
// devices achieve during a real PMM. Feeding these into the partitioning
// algorithm produces a distribution that is mis-balanced on the real
// (co-run) platform — the quantitative argument for the paper's careful
// measurement methodology (see the experiments package's contention
// study).

// contentionFactor is the co-run slowdown the standalone profiles miss.
// The factors differ per device: the CPU loses the most (it shares its
// sockets with the accelerators' host cores and memory traffic), the
// accelerators lose mainly PCIe and host-memory bandwidth.
var contentionFactor = map[string]float64{
	"AbsCPU":     0.72,
	"AbsGPU":     0.90,
	"AbsXeonPhi": 0.84,
}

// scaledModel multiplies a base model's speed by a constant factor.
type scaledModel struct {
	base  fpm.Model
	scale float64
}

// Speed implements fpm.Model.
func (m scaledModel) Speed(w float64) float64 { return m.scale * m.base.Speed(w) }

// StandaloneHCLServer1 returns HCLServer1 with optimistic standalone
// profiles: each device's co-run profile divided by its contention factor.
// Partitioning with these and executing on the real (co-run) platform
// reproduces the imbalance that motivates simultaneous profiling.
func StandaloneHCLServer1() *Platform {
	pl := HCLServer1()
	for _, d := range pl.Devices {
		f, ok := contentionFactor[d.Name]
		if !ok {
			f = 0.85
		}
		d.Speed = scaledModel{base: d.Speed, scale: 1 / f}
	}
	return pl
}
