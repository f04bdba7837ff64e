package core

import (
	"strings"
	"testing"

	"repro/internal/balance"
	"repro/internal/device"
	"repro/internal/partition"
)

func TestMemoryEstimate(t *testing.T) {
	// 1D layout: every rank needs all rows of A (WA is N×N for the single
	// grid row) and only its own columns of B.
	l, err := partition.FromArrays(16, 3, 1, 3, []int{0, 1, 2}, []int{16}, []int{8, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	got := MemoryEstimate(l, 0)
	// WA 16×16, WB 16×8, owned partitions 3×128.
	want := int64(8 * (16*16 + 16*8 + 3*128))
	if got != want {
		t.Fatalf("estimate = %d, want %d", got, want)
	}
	// Larger share ⇒ larger estimate.
	if MemoryEstimate(l, 2) >= MemoryEstimate(l, 0) {
		t.Fatal("smaller partition must need less memory")
	}
}

func TestCheckMemoryReproducesPaperThreshold(t *testing.T) {
	// On HCLServer1 the Xeon Phi (6 GB) runs out of memory for its share
	// of problems around the paper's N = 22592 (where the paper switches
	// to its out-of-core packages), while N = 8192 fits comfortably.
	pl := device.HCLServer1()
	mk := func(n int) *partition.Layout {
		areas, err := balance.Proportional(n*n, []float64{1, 2, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		l, err := partition.Build(partition.SquareRectangle, n, areas)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if err := CheckMemory(mk(8192), pl); err != nil {
		t.Fatalf("N=8192 should fit: %v", err)
	}
	err := CheckMemory(mk(25600), pl)
	if err == nil {
		t.Fatal("N=25600 must exceed an accelerator's memory")
	}
	if !strings.Contains(err.Error(), "out-of-core") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// memTestPlatform builds a 3-device platform whose per-rank memory is set
// from a function of the rank's own estimate — for boundary tests.
func memTestPlatform(l *partition.Layout, mem func(rank int, need int64) int64) *device.Platform {
	devs := make([]*device.Device, l.P)
	for r := 0; r < l.P; r++ {
		devs[r] = &device.Device{
			Name:       "m" + string(rune('0'+r)),
			PeakGFLOPS: 1,
			MemBytes:   mem(r, MemoryEstimate(l, r)),
		}
	}
	return &device.Platform{Name: "mem-test", Devices: devs}
}

func TestCheckMemoryExactBoundary(t *testing.T) {
	l, err := partition.FromArrays(16, 3, 1, 3, []int{0, 1, 2}, []int{16}, []int{8, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly at the limit: need == MemBytes must be admitted (the check
	// is an overflow check, not a headroom heuristic).
	at := memTestPlatform(l, func(_ int, need int64) int64 { return need })
	if err := CheckMemory(l, at); err != nil {
		t.Fatalf("exactly-at-limit must pass: %v", err)
	}
	// One byte short on one rank must fail, naming that rank.
	short := memTestPlatform(l, func(r int, need int64) int64 {
		if r == 1 {
			return need - 1
		}
		return need
	})
	err = CheckMemory(l, short)
	if err == nil {
		t.Fatal("one byte short must fail")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error must name the overflowing rank: %v", err)
	}
}

func TestCheckMemoryPlatformMismatch(t *testing.T) {
	l, _ := partition.FromArrays(16, 3, 1, 3, []int{0, 1, 2}, []int{16}, []int{8, 5, 3})
	pl := &device.Platform{Devices: device.HCLServer1().Devices[:2]}
	if err := CheckMemory(l, pl); err == nil {
		t.Fatal("platform/layout mismatch must fail")
	}
}
