package device

import (
	"math"
	"testing"

	"repro/internal/fpm"
	"repro/internal/hockney"
)

func TestDeviceComputeTime(t *testing.T) {
	d := &Device{Name: "d", PeakGFLOPS: 10, Speed: fpm.Constant{S: 2}} // 2 GFLOPS
	// area 1000, n 100 → 2*1000*100 = 2e5 flops at 2e9 flops/s = 1e-4 s.
	if got := d.ComputeTime(1000, 100); math.Abs(got-1e-4) > 1e-15 {
		t.Fatalf("ComputeTime = %v", got)
	}
	if d.ComputeTime(0, 100) != 0 {
		t.Fatal("zero area must take zero time")
	}
	zero := &Device{Speed: fpm.Constant{S: 0}}
	if !math.IsInf(zero.ComputeTime(10, 10), 1) {
		t.Fatal("zero speed must give +Inf")
	}
}

func TestAcceleratorFlag(t *testing.T) {
	host := &Device{}
	if host.Accelerator() {
		t.Fatal("zero PCIe link means host device")
	}
	acc := &Device{PCIe: hockney.PCIeGen3x16}
	if !acc.Accelerator() {
		t.Fatal("PCIe link means accelerator")
	}
}

func TestHCLServer1Shape(t *testing.T) {
	pl := HCLServer1()
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.P() != 3 {
		t.Fatalf("P = %d", pl.P())
	}
	names := []string{"AbsCPU", "AbsGPU", "AbsXeonPhi"}
	for i, d := range pl.Devices {
		if d.Name != names[i] {
			t.Fatalf("device %d = %s, want %s", i, d.Name, names[i])
		}
	}
	if got := pl.TheoreticalPeakGFLOPS(); got != 2500 {
		t.Fatalf("theoretical peak = %v GFLOPS, want 2500 (paper's 2.5 TFLOPS)", got)
	}
	if pl.StaticPowerW != 230 {
		t.Fatalf("static power = %v, want 230 W", pl.StaticPowerW)
	}
	if !pl.Devices[1].Accelerator() || !pl.Devices[2].Accelerator() || pl.Devices[0].Accelerator() {
		t.Fatal("GPU and Phi must be accelerators; CPU must not")
	}
}

func TestConstantRangeRelativeSpeeds(t *testing.T) {
	// Paper Section VI-A: relative speeds {1.0, 2.0, 0.9} over
	// N ∈ [25600, 35840].
	pl := HCLServer1()
	for _, n := range []int{25600, 28672, 30720, 33792, 35840} {
		area := float64(n) * float64(n)
		s := pl.Speeds(area)
		rGPU := s[1] / s[0]
		rPhi := s[2] / s[0]
		if math.Abs(rGPU-2.0) > 0.15 {
			t.Errorf("N=%d: GPU/CPU = %.3f, want ≈2.0", n, rGPU)
		}
		if math.Abs(rPhi-0.9) > 0.10 {
			t.Errorf("N=%d: Phi/CPU = %.3f, want ≈0.9", n, rPhi)
		}
	}
}

func TestConstantRangeIsNearlyConstant(t *testing.T) {
	pl := HCLServer1()
	for i, d := range pl.Devices {
		lo, hi := math.Inf(1), math.Inf(-1)
		for n := 25600; n <= 35840; n += 1024 {
			v := d.GFLOPS(float64(n) * float64(n))
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if (hi-lo)/lo > 0.25 {
			t.Errorf("device %d speed varies %.1f%% in the constant range", i, 100*(hi-lo)/lo)
		}
	}
}

func TestCombinedPlateauAnchors(t *testing.T) {
	// Plateau ≈ 2.1 TFLOPS (≈84 % of peak), so the PMM peak of ≈84 % is
	// reachable; toward N = 38416 the combined speed keeps a slight rise.
	pl := HCLServer1()
	sum := func(n int) float64 {
		var s float64
		for _, v := range pl.Speeds(float64(n) * float64(n)) {
			s += v
		}
		return s
	}
	plateau := sum(30720)
	if plateau < 1950 || plateau > 2250 {
		t.Fatalf("plateau combined speed = %v GFLOPS, want ≈2100", plateau)
	}
	peak := sum(38416)
	if peak < 2100 || peak > 2600 {
		t.Fatalf("peak-region combined speed = %v GFLOPS, want ≈2300", peak)
	}
	if peak <= plateau {
		t.Fatal("combined speed must rise toward N=38416")
	}
}

func TestPhiOutOfCardVariations(t *testing.T) {
	// Smooth below 13760: neighbouring sizes differ by little.
	maxRel := func(lo, hi, step int) float64 {
		var worst float64
		prev := AbsXeonPhiGflops(float64(lo) * float64(lo))
		for n := lo + step; n <= hi; n += step {
			cur := AbsXeonPhiGflops(float64(n) * float64(n))
			rel := math.Abs(cur-prev) / prev
			if rel > worst {
				worst = rel
			}
			prev = cur
		}
		return worst
	}
	smooth := maxRel(8000, 13760, 128)
	rough := maxRel(14000, 19200, 128)
	if smooth > 0.05 {
		t.Fatalf("Phi profile not smooth below 13760: %.3f", smooth)
	}
	if rough < 2*smooth {
		t.Fatalf("Phi profile must be visibly non-smooth beyond 13824: smooth=%.4f rough=%.4f", smooth, rough)
	}
}

func TestRampUpAtSmallSizes(t *testing.T) {
	for _, f := range []func(float64) float64{AbsCPUGflops, AbsGPUGflops, AbsXeonPhiGflops} {
		small := f(512 * 512)
		large := f(25600 * 25600)
		if small >= large/2 {
			t.Fatalf("profiles must ramp up: small=%v large=%v", small, large)
		}
	}
}

func TestProfileSizesMonotone(t *testing.T) {
	sizes := ProfileSizes()
	if len(sizes) < 100 {
		t.Fatalf("too few profile sizes: %d", len(sizes))
	}
	if sizes[0] != 64 {
		t.Fatalf("profiles must start at 64, got %d", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatal("sizes must be strictly increasing")
		}
	}
	if last := sizes[len(sizes)-1]; last < 38416 {
		t.Fatalf("profiles must cover the peak size 38416, last=%d", last)
	}
}

func TestConstantHCLServer1(t *testing.T) {
	pl := ConstantHCLServer1()
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, d := range pl.Devices {
		s1 := d.GFLOPS(1)
		s2 := d.GFLOPS(1e12)
		if s1 != s2 {
			t.Fatalf("device %d not constant: %v vs %v", i, s1, s2)
		}
		if s1 <= 0 {
			t.Fatalf("device %d constant speed %v", i, s1)
		}
	}
}

func TestValidateFailures(t *testing.T) {
	if err := (&Platform{Name: "x"}).Validate(); err == nil {
		t.Fatal("empty platform must fail")
	}
	pl := &Platform{Name: "x", Devices: []*Device{nil}}
	if err := pl.Validate(); err == nil {
		t.Fatal("nil device must fail")
	}
	pl = &Platform{Devices: []*Device{{Name: "d", PeakGFLOPS: 1}}}
	if err := pl.Validate(); err == nil {
		t.Fatal("missing speed model must fail")
	}
	pl = &Platform{Devices: []*Device{{Name: "d", Speed: fpm.Constant{S: 1}}}}
	if err := pl.Validate(); err == nil {
		t.Fatal("non-positive peak must fail")
	}
	pl = &Platform{
		Devices:      []*Device{{Name: "d", PeakGFLOPS: 1, Speed: fpm.Constant{S: 1}}},
		StaticPowerW: -5,
	}
	if err := pl.Validate(); err == nil {
		t.Fatal("negative static power must fail")
	}
}

func TestStandaloneHCLServer1(t *testing.T) {
	co := HCLServer1()
	solo := StandaloneHCLServer1()
	if err := solo.Validate(); err != nil {
		t.Fatal(err)
	}
	factors := contentionFactor
	area := float64(20480) * float64(20480)
	for i, d := range co.Devices {
		f := factors[d.Name]
		if f <= 0 || f >= 1 {
			t.Fatalf("%s factor %v outside (0,1)", d.Name, f)
		}
		ratio := solo.Devices[i].GFLOPS(area) / d.GFLOPS(area)
		if math.Abs(ratio-1/f) > 1e-9 {
			t.Fatalf("%s standalone/co-run ratio %v, want %v", d.Name, ratio, 1/f)
		}
	}
	// The CPU suffers the most contention (shares sockets and memory).
	if factors["AbsCPU"] >= factors["AbsGPU"] || factors["AbsCPU"] >= factors["AbsXeonPhi"] {
		t.Fatal("CPU must have the strongest contention")
	}
}

func TestHCLServer2(t *testing.T) {
	pl := HCLServer2()
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl.P() != 4 {
		t.Fatalf("P = %d, want 4", pl.P())
	}
	if got := pl.TheoreticalPeakGFLOPS(); got != 5400 {
		t.Fatalf("peak = %v GFLOPS", got)
	}
	// Three accelerators, one host.
	acc := 0
	for _, d := range pl.Devices {
		if d.Accelerator() {
			acc++
		}
	}
	if acc != 3 {
		t.Fatalf("accelerators = %d, want 3", acc)
	}
	// Speeds ramp up and plateau below peak.
	for _, d := range pl.Devices {
		small := d.GFLOPS(512 * 512)
		big := d.GFLOPS(20000 * 20000)
		if small >= big || big >= d.PeakGFLOPS {
			t.Fatalf("%s: small %v big %v peak %v", d.Name, small, big, d.PeakGFLOPS)
		}
	}
}

func TestPlatformByName(t *testing.T) {
	for _, tc := range []struct {
		name, want, err string
	}{
		{name: "hclserver1", want: "HCLServer1"},
		{name: "hclserver2", want: "HCLServer2"},
		{name: "HCLServer1", err: `unknown platform "HCLServer1" (valid: hclserver1, hclserver2)`},
		{name: "", err: `unknown platform "" (valid: hclserver1, hclserver2)`},
	} {
		pl, err := PlatformByName(tc.name)
		switch {
		case tc.err != "":
			if err == nil || err.Error() != tc.err || pl != nil {
				t.Errorf("PlatformByName(%q) = %v, %v; want error %q", tc.name, pl, err, tc.err)
			}
		case err != nil || pl.Name != tc.want:
			t.Errorf("PlatformByName(%q) = %v, %v; want platform %s", tc.name, pl, err, tc.want)
		}
	}
}
