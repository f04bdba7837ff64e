// Command bench is the repository's benchmark: four named workloads, the
// end-to-end metrics a user of the engine or the service pays for, and a
// per-layer ladder measured in a separate traced pass. BENCHMARK.json at the
// repository root is its contract; bench/README.md says why each workload and
// metric is there.
//
//	bash bench/run.sh                       # every workload, both passes, report
//	bash bench/run.sh -agree 2              # do two sets of runs agree within the bounds?
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   # one run, one JSON line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one measured value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// defaultSeconds is the run length BENCHMARK.json asks for: the scale factor
// every op count derives from is the run length over this.
const defaultSeconds = 20

// setupRuns is how many cold set-ups an untraced run times: its own and
// setupRuns-1 in processes that set up and exit. setup_s is their median, so
// one slow dial or page-fault storm does not decide it, and every one of them
// is the set-up of a fresh process, as a user pays it.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	agree    int
	setup    bool
	dir      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print one JSON result line (default: every workload, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for matrices, job mix, perturbed speeds and the Poisson schedule")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "run length: each workload runs opsPerSecond × this many ops (the common scale factor)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass at a quarter of the ops, per-layer metrics")
	flag.IntVar(&o.agree, "agree", 0, "run this many sets of untraced runs and check that they agree within BENCHMARK.json's bounds")
	flag.BoolVar(&o.setup, "setup-only", false, "with -workload: set the workload up, report setup_s alone and exit (an untraced run times its cold set-ups this way)")
	flag.StringVar(&o.dir, "dir", "bench", "the benchmark's own directory (out/ is written there, BENCHMARK.json is read beside it)")
	flag.Parse()

	var err error
	switch {
	case o.agree > 0:
		err = agree(o)
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry: one workload, one pass, one JSON line.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var res *result
	var err error
	switch {
	case o.setup:
		res, err = setupOnly(w, o)
	case o.trace == 0:
		printHeader(o, w)
		if res, err = untracedPass(w, o); err == nil {
			err = addColdSetups(res, w, o)
		}
	default:
		printHeader(o, w)
		res, err = tracedPass(w, o)
	}
	if err != nil {
		return err
	}
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUp sets the workload up once and returns the seconds it took, harness-only
// work excluded.
func setUp(w *workload, seed int64, ops int) (instance, float64, error) {
	inst, begin, end, err := w.setup(seed, ops)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return inst, end.Sub(begin).Seconds(), nil
}

// setupOnly is what a -setup-only child does: one cold set-up, timed.
func setupOnly(w *workload, o options) (*result, error) {
	inst, took, err := setUp(w, o.seed, w.opCount(o.seconds))
	if err != nil {
		return nil, err
	}
	inst.close()
	return &result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {took, "s"}}}, nil
}

// addColdSetups times setupRuns-1 further set-ups, each in a fresh process,
// and replaces the run's setup_s by the median of all of them.
func addColdSetups(res *result, w *workload, o options) error {
	setups := []float64{res.Metrics["setup_s"].Value}
	for len(setups) < setupRuns {
		child, err := runChild(o, w.name, o.seed, false, "-setup-only")
		if err != nil {
			return err
		}
		setups = append(setups, child.Metrics["setup_s"].Value)
	}
	fmt.Printf("set-up: median of %d cold set-ups, %.4g…%.4g s\n", len(setups), sorted(setups)[0], sorted(setups)[len(setups)-1])
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return nil
}

// untracedPass measures the end-to-end metrics with every harness span off:
// one set-up, the timed ops, the untimed verification ops.
func untracedPass(w *workload, o options) (*result, error) {
	ops := w.opCount(o.seconds)
	inst, took, err := setUp(w, o.seed, ops)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ph := measure(inst, ops, nil)
	verified, bad := inst.verify()
	metrics := ph.endToEnd()
	metrics["setup_s"] = metric{took, "s"}
	fmt.Printf("ops: %d timed (%d ok, %d failed) over %.3f s, %d verification ops (%d failed)\n",
		len(ph.samples), ph.okOps, ph.badOps, ph.last.Sub(ph.first).Seconds(), verified, bad)
	p90, p90Used := supportedPercentile(ph.latencies, 90)
	fmt.Printf("op latency over %d samples: median %.4f ms, p%d %.4f ms; heap taken from the OS %.1f MB\n",
		len(ph.latencies), metrics["op_p50_ms"].Value, p90Used, p90, float64(ph.after.HeapSys)/1e6)
	return &result{
		Correct:   ph.badOps+bad == 0,
		Attempted: len(ph.samples) + verified,
		Failed:    ph.badOps + bad,
		Metrics:   metrics,
	}, nil
}

// printHeader records what the numbers below were measured on.
func printHeader(o options, w *workload) {
	fmt.Printf("workload %s: seed %d, run length %g s → %d timed ops (scale factor %g of the %d s default), trace %d\n",
		w.name, o.seed, o.seconds, w.opCount(o.seconds), o.seconds/defaultSeconds, defaultSeconds, o.trace)
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s, cpu %q, commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit(o.dir))
}

// printMetrics prints every metric by name with its unit.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// cpuModel reads the processor's name; the kernel's own files are the only
// thing the benchmark reads outside its checkout.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD by reading .git beside the benchmark's directory; a
// checkout that is not a repository reports "unknown".
func commit(dir string) string {
	git := filepath.Join(dir, "..", ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(git, name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}
