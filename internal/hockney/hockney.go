// Package hockney implements the Hockney point-to-point communication cost
// model used throughout the paper: transferring m bytes over a link costs
//
//	t(m) = α + β·m
//
// where α is the link latency (seconds) and β the reciprocal bandwidth
// (seconds per byte). On top of the link model, the package provides
// collective cost formulas (flat and binomial-tree broadcast) that
// core.Simulate uses to advance its virtual clocks.
package hockney

import (
	"fmt"
	"math"
)

// Link holds the parameters of one communication link.
type Link struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the reciprocal bandwidth in seconds per byte.
	Beta float64
}

// Validate reports whether the link parameters are physically meaningful.
func (l Link) Validate() error {
	if l.Alpha < 0 || math.IsNaN(l.Alpha) || math.IsInf(l.Alpha, 0) {
		return fmt.Errorf("hockney: invalid alpha %v", l.Alpha)
	}
	if l.Beta < 0 || math.IsNaN(l.Beta) || math.IsInf(l.Beta, 0) {
		return fmt.Errorf("hockney: invalid beta %v", l.Beta)
	}
	return nil
}

// SendTime returns the modelled time to move bytes over the link.
func (l Link) SendTime(bytes int) float64 {
	if bytes <= 0 {
		return l.Alpha
	}
	return l.Alpha + l.Beta*float64(bytes)
}

// Bandwidth returns the asymptotic bandwidth in bytes/second.
func (l Link) Bandwidth() float64 {
	if l.Beta == 0 {
		return math.Inf(1)
	}
	return 1 / l.Beta
}

// FromBandwidth builds a Link from a latency in seconds and a bandwidth in
// bytes per second.
func FromBandwidth(alphaSeconds, bytesPerSecond float64) Link {
	if bytesPerSecond <= 0 {
		return Link{Alpha: alphaSeconds, Beta: math.Inf(1)}
	}
	return Link{Alpha: alphaSeconds, Beta: 1 / bytesPerSecond}
}

// BcastAlgorithm selects the collective algorithm whose cost is modelled.
type BcastAlgorithm int

const (
	// BcastBinomial models a binomial-tree broadcast: ceil(log2(p)) rounds,
	// each costing one full message transfer. This is the default and
	// matches the behaviour of common MPI implementations for the message
	// sizes SummaGen sends.
	BcastBinomial BcastAlgorithm = iota
	// BcastFlat models a root-sequential broadcast: the root sends the
	// message to each of the p-1 receivers in turn.
	BcastFlat
)

// BcastTime returns the modelled completion time of broadcasting `bytes`
// from one root to p-1 receivers over identical links.
func BcastTime(alg BcastAlgorithm, l Link, bytes, p int) float64 {
	if p <= 1 {
		return 0
	}
	per := l.SendTime(bytes)
	switch alg {
	case BcastFlat:
		return float64(p-1) * per
	case BcastBinomial:
		rounds := CeilLog2(p)
		return float64(rounds) * per
	default:
		panic(fmt.Sprintf("hockney: unknown broadcast algorithm %d", alg))
	}
}

// CeilLog2 returns ceil(log2(n)) for n >= 1.
func CeilLog2(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("hockney: CeilLog2(%d)", n))
	}
	r := 0
	for v := n - 1; v > 0; v >>= 1 {
		r++
	}
	return r
}

// Common link presets. The values are representative of the paper's
// platform generation (FDR-era MPI over shared memory / PCIe-connected
// devices inside one NUMA node).
var (
	// IntraNode models MPI between processes on one node: ~1 µs latency,
	// ~6 GB/s effective per-link bandwidth.
	IntraNode = FromBandwidth(1e-6, 6e9)
	// PCIeGen3x16 models a host↔accelerator link: ~10 µs latency,
	// ~12 GB/s effective bandwidth.
	PCIeGen3x16 = FromBandwidth(10e-6, 12e9)
	// TenGbE models a 10 Gb Ethernet cluster link for the distributed
	// extension experiments.
	TenGbE = FromBandwidth(50e-6, 1.25e9)
)
