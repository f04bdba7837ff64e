package fpm_test

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/fpm"
)

// The paper builds the full speed functions of Figure 5 "using an
// automated procedure": time each workload, record speed = workload/time
// (cmd/fpmprof runs it on the host it is started on). This test feeds the points that
// procedure yields on the modelled devices to both FPM classes and checks
// the rebuilt FPM reproduces the device's own curve — the same round trip
// the authors rely on when they feed measured profiles back into the
// partitioning algorithms.
func TestBuilderReconstructsDeviceProfiles(t *testing.T) {
	pl := device.HCLServer1()
	for _, d := range pl.Devices {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			// Time to process `area` workload units at the device's modelled
			// speed, like timing one kernel execution, gives speed = area/time:
			// the modelled speed itself.
			var pts []fpm.Point
			for _, n := range device.ProfileSizes() {
				area := float64(n) * float64(n)
				pts = append(pts, fpm.Point{W: area, S: d.GFLOPS(area)})
			}
			rebuilt, err := fpm.NewTable(pts)
			if err != nil {
				t.Fatal(err)
			}
			akima, err := fpm.NewAkima(pts)
			if err != nil {
				t.Fatal(err)
			}
			// Compare on a grid offset from the knots.
			for n := 1000; n <= 38000; n += 777 {
				area := float64(n) * float64(n)
				want := d.GFLOPS(area)
				gotT := rebuilt.Speed(area)
				gotA := akima.Speed(area)
				if math.Abs(gotT-want)/want > 0.02 {
					t.Fatalf("piecewise-linear rebuild off at N=%d: %v vs %v", n, gotT, want)
				}
				// Akima may overshoot slightly more in the non-smooth
				// out-of-card region.
				if math.Abs(gotA-want)/want > 0.08 {
					t.Fatalf("Akima rebuild off at N=%d: %v vs %v", n, gotA, want)
				}
			}
		})
	}
}
