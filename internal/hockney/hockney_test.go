package hockney

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSendTime(t *testing.T) {
	l := Link{Alpha: 1e-6, Beta: 1e-9}
	if got := l.SendTime(0); got != 1e-6 {
		t.Fatalf("SendTime(0) = %v, want alpha", got)
	}
	if got := l.SendTime(1000); math.Abs(got-(1e-6+1e-6)) > 1e-18 {
		t.Fatalf("SendTime(1000) = %v", got)
	}
	if got := l.SendTime(-5); got != 1e-6 {
		t.Fatalf("SendTime(negative) = %v, want alpha", got)
	}
}

func TestValidate(t *testing.T) {
	good := Link{Alpha: 0, Beta: 0}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Link{
		{Alpha: -1, Beta: 0},
		{Alpha: 0, Beta: -1},
		{Alpha: math.NaN(), Beta: 0},
		{Alpha: 0, Beta: math.Inf(1)},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Fatalf("Validate(%+v) should fail", l)
		}
	}
}

func TestBandwidthRoundTrip(t *testing.T) {
	l := FromBandwidth(2e-6, 5e9)
	if math.Abs(l.Bandwidth()-5e9) > 1 {
		t.Fatalf("Bandwidth = %v", l.Bandwidth())
	}
	if l.Alpha != 2e-6 {
		t.Fatalf("Alpha = %v", l.Alpha)
	}
	if !math.IsInf(FromBandwidth(0, 0).Beta, 1) {
		t.Fatal("zero bandwidth must give infinite beta")
	}
	if !math.IsInf((Link{Beta: 0}).Bandwidth(), 1) {
		t.Fatal("zero beta must give infinite bandwidth")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CeilLog2(0) must panic")
		}
	}()
	CeilLog2(0)
}

func TestBcastTime(t *testing.T) {
	l := Link{Alpha: 1, Beta: 0} // 1 second per message, size-independent
	if got := BcastTime(BcastBinomial, l, 100, 1); got != 0 {
		t.Fatalf("p=1 broadcast must be free, got %v", got)
	}
	if got := BcastTime(BcastBinomial, l, 100, 2); got != 1 {
		t.Fatalf("p=2 binomial = %v, want 1", got)
	}
	if got := BcastTime(BcastBinomial, l, 100, 3); got != 2 {
		t.Fatalf("p=3 binomial = %v, want 2", got)
	}
	if got := BcastTime(BcastFlat, l, 100, 3); got != 2 {
		t.Fatalf("p=3 flat = %v, want 2", got)
	}
	if got := BcastTime(BcastFlat, l, 100, 9); got != 8 {
		t.Fatalf("p=9 flat = %v, want 8", got)
	}
	if got := BcastTime(BcastBinomial, l, 100, 9); got != 4 {
		t.Fatalf("p=9 binomial = %v, want 4", got)
	}
}

func TestBcastUnknownAlgPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown algorithm must panic")
		}
	}()
	BcastTime(BcastAlgorithm(42), IntraNode, 1, 2)
}

// Property: send time is monotone non-decreasing in message size, and the
// binomial tree never exceeds the flat broadcast cost.
func TestQuickMonotoneAndTreeBeatsFlat(t *testing.T) {
	f := func(m1, m2 uint32, p8 uint8) bool {
		l := IntraNode
		a, b := int(m1), int(m2)
		if a > b {
			a, b = b, a
		}
		if l.SendTime(a) > l.SendTime(b) {
			return false
		}
		p := int(p8%16) + 1
		return BcastTime(BcastBinomial, l, a, p) <= BcastTime(BcastFlat, l, a, p)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPresetsSane(t *testing.T) {
	for _, l := range []Link{IntraNode, PCIeGen3x16, TenGbE} {
		if err := l.Validate(); err != nil {
			t.Fatalf("preset invalid: %+v", l)
		}
		if l.Alpha <= 0 || l.Beta <= 0 {
			t.Fatalf("preset should have positive parameters: %+v", l)
		}
	}
	// PCIe should be higher bandwidth than 10GbE.
	if PCIeGen3x16.Bandwidth() <= TenGbE.Bandwidth() {
		t.Fatal("PCIe must out-pace 10GbE")
	}
}
