// Command benchguard turns `go test -bench` output into a committed JSON
// baseline and gates regressions against it — the tool behind the
// bench-regression CI job (scripts/bench-regression.sh).
//
//	go test -run '^$' -bench BenchmarkSummaGen -benchmem -count 6 . > raw.txt
//	benchguard -input raw.txt -baseline BENCH_baseline.json -write   # refresh
//	benchguard -input raw.txt -baseline BENCH_baseline.json \
//	    -gate 'BenchmarkSummaGen/obs=off$'                           # gate CI
//
// Gating rules (per benchmark matching -gate):
//
//   - allocs/op is gated unconditionally: allocation counts are
//     deterministic, so any increase beyond -max-regress (plus a slack of
//     two allocations for size-class boundary flips) fails the run on any
//     hardware.
//   - B/op is gated the same way, with a slack of 16 KiB: warm-up
//     allocations (the first multiply fills the slab pool) are amortised
//     over however many iterations the run took, which moves B/op by a few
//     KiB between identical builds, while the regression this gate exists
//     for — a working matrix allocated per call again — is megabytes.
//   - ns/op is gated only when the current `cpu:` line matches the
//     baseline's: wall-time comparisons across different CI machine types
//     measure the fleet, not the change. A mismatch is reported, not failed.
//
// Medians across -count repetitions are compared, so one noisy repetition
// cannot fail (or rescue) a run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one parsed benchmark result line.
type sample struct {
	nsPerOp     float64
	bytesPerOp  int64
	allocsPerOp int64
}

// parsed is everything benchguard reads out of a `go test -bench` run.
type parsed struct {
	goos, goarch, cpu string
	samples           map[string][]sample // canonical name → one entry per -count rep
	order             []string
}

// Baseline is the committed JSON schema.
type Baseline struct {
	Description string                   `json:"description,omitempty"`
	Date        string                   `json:"date"`
	Goos        string                   `json:"goos"`
	Goarch      string                   `json:"goarch"`
	CPU         string                   `json:"cpu"`
	Command     string                   `json:"command,omitempty"`
	Benchmarks  map[string]BaselineEntry `json:"benchmarks"`
}

// BaselineEntry holds the medians for one benchmark.
type BaselineEntry struct {
	Samples           int     `json:"samples"`
	MedianNsPerOp     float64 `json:"median_ns_per_op"`
	MedianBytesPerOp  int64   `json:"median_bytes_per_op"`
	MedianAllocsPerOp int64   `json:"median_allocs_per_op"`
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput reads `go test -bench` text. Lines it does not
// recognize (PASS, ok, custom-metric-only noise) are skipped.
func parseBenchOutput(path string) (*parsed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p := &parsed{samples: map[string][]sample{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			p.goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			p.goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			p.cpu = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		var s sample
		seenNs := false
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q in %q", path, fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp, seenNs = v, true
			case "B/op":
				s.bytesPerOp = int64(v)
			case "allocs/op":
				s.allocsPerOp = int64(v)
			}
		}
		if !seenNs {
			continue
		}
		if _, ok := p.samples[name]; !ok {
			p.order = append(p.order, name)
		}
		p.samples[name] = append(p.samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.samples) == 0 {
		return nil, fmt.Errorf("%s: no benchmark result lines found", path)
	}
	return p, nil
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianInt(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (p *parsed) entry(name string) BaselineEntry {
	ss := p.samples[name]
	ns := make([]float64, len(ss))
	by := make([]int64, len(ss))
	al := make([]int64, len(ss))
	for i, s := range ss {
		ns[i], by[i], al[i] = s.nsPerOp, s.bytesPerOp, s.allocsPerOp
	}
	return BaselineEntry{
		Samples:           len(ss),
		MedianNsPerOp:     medianFloat(ns),
		MedianBytesPerOp:  medianInt(by),
		MedianAllocsPerOp: medianInt(al),
	}
}

func writeBaseline(path string, p *parsed, description, command string) error {
	b := Baseline{
		Description: description,
		Date:        time.Now().UTC().Format("2006-01-02"),
		Goos:        p.goos,
		Goarch:      p.goarch,
		CPU:         p.cpu,
		Command:     command,
		Benchmarks:  map[string]BaselineEntry{},
	}
	for _, name := range p.order {
		b.Benchmarks[name] = p.entry(name)
	}
	out, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// allocSlack absorbs size-class boundary flips: a benchmark sitting on an
// allocator edge can legitimately move by an allocation or two between
// identical builds.
const allocSlack = 2

// bytesSlack absorbs the run-length-dependent amortisation of warm-up
// allocations in B/op.
const bytesSlack = 16 << 10

func compare(base *Baseline, p *parsed, gate *regexp.Regexp, maxRegress float64) (failures []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	cpuMatch := base.CPU != "" && base.CPU == p.cpu
	if !cpuMatch {
		fmt.Printf("note: cpu mismatch (baseline %q, current %q) — ns/op gate skipped, allocs/op and B/op still enforced\n",
			base.CPU, p.cpu)
	}
	for _, name := range names {
		if !gate.MatchString(name) {
			continue
		}
		want := base.Benchmarks[name]
		if _, ok := p.samples[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: gated benchmark missing from current run", name))
			continue
		}
		got := p.entry(name)
		limit := int64(float64(want.MedianAllocsPerOp)*(1+maxRegress)) + allocSlack
		if got.MedianAllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %d → %d (limit %d)",
				name, want.MedianAllocsPerOp, got.MedianAllocsPerOp, limit))
		}
		bytesLimit := int64(float64(want.MedianBytesPerOp)*(1+maxRegress)) + bytesSlack
		if got.MedianBytesPerOp > bytesLimit {
			failures = append(failures, fmt.Sprintf("%s: B/op regressed %d → %d (limit %d)",
				name, want.MedianBytesPerOp, got.MedianBytesPerOp, bytesLimit))
		}
		if cpuMatch && want.MedianNsPerOp > 0 {
			nsLimit := want.MedianNsPerOp * (1 + maxRegress)
			if got.MedianNsPerOp > nsLimit {
				failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.0f → %.0f (limit %.0f, +%.1f%%)",
					name, want.MedianNsPerOp, got.MedianNsPerOp, nsLimit,
					100*(got.MedianNsPerOp/want.MedianNsPerOp-1)))
			}
		}
		fmt.Printf("%-48s ns/op %12.0f (base %12.0f)  B/op %9d (base %9d)  allocs/op %6d (base %6d)\n",
			name, got.MedianNsPerOp, want.MedianNsPerOp, got.MedianBytesPerOp, want.MedianBytesPerOp,
			got.MedianAllocsPerOp, want.MedianAllocsPerOp)
	}
	return failures
}

func main() {
	var (
		input       = flag.String("input", "", "raw `go test -bench` output to parse (required)")
		baseline    = flag.String("baseline", "BENCH_baseline.json", "baseline JSON path")
		write       = flag.Bool("write", false, "write/refresh the baseline from -input instead of gating")
		gateExpr    = flag.String("gate", ".", "regexp of benchmark names to gate (compare mode)")
		maxRegress  = flag.Float64("max-regress", 0.10, "maximum allowed relative regression (0.10 = 10%)")
		description = flag.String("description", "", "baseline description (write mode)")
		command     = flag.String("command", "", "command recorded in the baseline (write mode)")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -input is required")
		os.Exit(2)
	}
	p, err := parseBenchOutput(*input)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	if *write {
		if err := writeBaseline(*baseline, p, *description, *command); err != nil {
			fmt.Fprintln(os.Stderr, "benchguard:", err)
			os.Exit(2)
		}
		fmt.Printf("benchguard: wrote %s (%d benchmarks)\n", *baseline, len(p.samples))
		return
	}
	gate, err := regexp.Compile(*gateExpr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: bad -gate:", err)
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	failures := compare(&base, p, gate, *maxRegress)
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "benchguard: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: OK")
}
