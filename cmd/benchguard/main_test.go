package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: TestCPU @ 2.10GHz
BenchmarkSummaGen/obs=off-8   	      62	  18646923 ns/op	 9265840 B/op	     510 allocs/op
BenchmarkSummaGen/obs=off-8   	      54	  19915977 ns/op	 9265843 B/op	     511 allocs/op
BenchmarkSummaGen/obs=off-8   	      55	  20989130 ns/op	 9265843 B/op	     512 allocs/op
BenchmarkSummaGen/obs=on-8    	      78	  16047158 ns/op	        19.00 spans/op	 9274004 B/op	     526 allocs/op
PASS
ok  	repro	36.747s
`

func writeSample(t *testing.T, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	p, err := parseBenchOutput(writeSample(t, sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if p.cpu != "TestCPU @ 2.10GHz" || p.goos != "linux" || p.goarch != "amd64" {
		t.Fatalf("context lines misparsed: %+v", p)
	}
	off := p.entry("BenchmarkSummaGen/obs=off")
	if off.Samples != 3 {
		t.Fatalf("want 3 samples with the -8 suffix stripped, got %d", off.Samples)
	}
	if off.MedianNsPerOp != 19915977 {
		t.Fatalf("median ns/op = %v, want 19915977", off.MedianNsPerOp)
	}
	if off.MedianAllocsPerOp != 511 {
		t.Fatalf("median allocs/op = %d, want 511", off.MedianAllocsPerOp)
	}
	// Custom metrics (spans/op) must not shift the B/op and allocs/op columns.
	on := p.entry("BenchmarkSummaGen/obs=on")
	if on.MedianBytesPerOp != 9274004 || on.MedianAllocsPerOp != 526 {
		t.Fatalf("custom-metric line misparsed: %+v", on)
	}
}

func TestCompareGatesRegressions(t *testing.T) {
	base := &Baseline{
		CPU: "TestCPU @ 2.10GHz",
		Benchmarks: map[string]BaselineEntry{
			"BenchmarkSummaGen/obs=off": {MedianNsPerOp: 10_000_000, MedianAllocsPerOp: 400},
		},
	}
	gate := regexp.MustCompile(`BenchmarkSummaGen/obs=off$`)
	mk := func(ns, allocs int64) *parsed {
		return &parsed{
			cpu: "TestCPU @ 2.10GHz",
			samples: map[string][]sample{
				"BenchmarkSummaGen/obs=off": {{nsPerOp: float64(ns), allocsPerOp: allocs}},
			},
		}
	}

	if f := compare(base, mk(10_500_000, 401), gate, 0.10); len(f) != 0 {
		t.Fatalf("within-limit run must pass, got %v", f)
	}
	if f := compare(base, mk(11_500_000, 400), gate, 0.10); len(f) != 1 {
		t.Fatalf("15%% ns/op regression on matching cpu must fail, got %v", f)
	}
	if f := compare(base, mk(10_000_000, 460), gate, 0.10); len(f) != 1 {
		t.Fatalf("15%% allocs/op regression must fail, got %v", f)
	}

	// On different hardware ns/op is informational, allocs/op still gates.
	other := mk(25_000_000, 400)
	other.cpu = "OtherCPU"
	if f := compare(base, other, gate, 0.10); len(f) != 0 {
		t.Fatalf("ns/op on mismatched cpu must not gate, got %v", f)
	}
	other = mk(10_000_000, 460)
	other.cpu = "OtherCPU"
	if f := compare(base, other, gate, 0.10); len(f) != 1 {
		t.Fatalf("allocs/op must gate on any cpu, got %v", f)
	}

	// B/op gates on any cpu: kilobytes of amortisation noise pass, a per-op
	// working matrix coming back does not.
	base.Benchmarks["BenchmarkSummaGen/obs=off"] = BaselineEntry{MedianNsPerOp: 10_000_000, MedianBytesPerOp: 24_000, MedianAllocsPerOp: 400}
	withBytes := func(b int64) *parsed {
		p := mk(10_000_000, 400)
		p.cpu = "OtherCPU"
		p.samples["BenchmarkSummaGen/obs=off"][0].bytesPerOp = b
		return p
	}
	if f := compare(base, withBytes(30_000), gate, 0.10); len(f) != 0 {
		t.Fatalf("B/op within 10%% + slack must pass, got %v", f)
	}
	if f := compare(base, withBytes(5_850_000), gate, 0.10); len(f) != 1 {
		t.Fatalf("a per-op slab (24 KB → 5.85 MB B/op) must fail, got %v", f)
	}

	// A gated benchmark missing from the run is itself a failure.
	missing := &parsed{cpu: "TestCPU @ 2.10GHz", samples: map[string][]sample{}}
	if f := compare(base, missing, gate, 0.10); len(f) != 1 {
		t.Fatalf("missing gated benchmark must fail, got %v", f)
	}
}
