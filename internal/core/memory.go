package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/partition"
)

// MemoryEstimate returns the bytes of float64 storage rank needs to
// execute SummaGen under the layout: its working matrices WA and WB plus
// its owned partitions of A, B and C. This is the quantity behind the
// paper's observation that problem sizes past N = 22592 hit memory
// failures on HCLServer1 without the out-of-core packages.
func MemoryEstimate(l *partition.Layout, rank int) int64 {
	ws := buildWorkingSet(l, rank)
	area := int64(l.Areas()[rank])
	wa := int64(ws.waRows) * int64(l.N)
	wb := int64(l.N) * int64(ws.wbCols)
	// Owned partitions of A, B, C.
	owned := 3 * area
	return 8 * (wa + wb + owned)
}

// CheckMemory verifies every rank's estimate fits its device, returning a
// descriptive error for the first rank that does not.
func CheckMemory(l *partition.Layout, pl *device.Platform) error {
	if pl.P() != l.P {
		return fmt.Errorf("core: platform has %d devices but layout has %d processors", pl.P(), l.P)
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
