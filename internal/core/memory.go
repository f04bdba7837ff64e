package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/partition"
)

// MemoryEstimate returns the bytes of float64 storage rank needs to
// execute SummaGen under the layout: its working matrices WA and WB, exactly
// as the rank draws them (each band padded to whole strips of the DGEMM's
// packed format), plus its owned partitions of A, B and C. This is the quantity behind the
// paper's observation that problem sizes past N = 22592 hit memory
// failures on HCLServer1 without the out-of-core packages. It is 0 for an
// invalid layout.
func MemoryEstimate(l *partition.Layout, rank int) int64 {
	s, err := scheduleFor(l)
	if err != nil {
		return 0
	}
	wa, wb := s.ranks[rank].workLens(l.N)
	// WA, WB, and the owned partitions of A, B and C.
	return 8 * (int64(wa) + int64(wb) + 3*int64(s.areas[rank]))
}

// CheckMemory verifies every rank's estimate fits its device, returning a
// descriptive error for the first rank that does not.
func CheckMemory(l *partition.Layout, pl *device.Platform) error {
	if pl.P() != l.P {
		return fmt.Errorf("core: platform has %d devices but layout has %d processors", pl.P(), l.P)
	}
	if _, err := scheduleFor(l); err != nil {
		return err
	}
	for r := 0; r < l.P; r++ {
		d := pl.Devices[r]
		if need := MemoryEstimate(l, r); need > d.MemBytes {
			return fmt.Errorf("core: rank %d (%s) needs %.2f GB but has %.2f GB — the paper's out-of-core regime (N beyond ~22592 on HCLServer1)",
				r, d.Name, float64(need)/float64(1<<30), float64(d.MemBytes)/float64(1<<30))
		}
	}
	return nil
}
