package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// layerRecord is what a traced pass leaves in out/layers.json for its
// workload: every per-layer metric, the op medians the overhead was computed
// from, and each harness span name's self time per op.
type layerRecord struct {
	Seed        int64               `json:"seed"`
	Seconds     float64             `json:"seconds"`
	OpsTraced   int                 `json:"ops_traced"`
	UntracedP50 float64             `json:"op_p50_ms_untraced"`
	TracedP50   float64             `json:"op_p50_ms_traced"`
	Metrics     map[string]metric   `json:"metrics"`
	SelfMs      map[string]selfTime `json:"self_per_op"`
}

// traceBlocks is how many untraced and how many traced blocks the traced pass
// runs, in the order U T T U, so that a drift falls on both sides of the
// overhead alike.
const traceBlocks = 2

// tracedPass measures the per-layer metrics: the workload at a quarter of its
// ops without and a quarter with the harness's spans on, in alternating blocks
// (the ratio of their medians is the tracing overhead), then the layer ladder
// on the workload's sizes. It writes out/trace-<workload>.json and updates
// out/layers.json and out/REPORT.md.
func tracedPass(w *workload, o options) (*result, error) {
	ops := w.opCount(o.seconds)
	quarter := max(4, ops/4)
	inst, _, err := setUp(w, o.seed, ops)
	if err != nil {
		return nil, err
	}
	block := max(2, quarter/traceBlocks)
	plain, traced, tr := &phase{}, &phase{}, &tracer{}
	var heapSys uint64 // after the last block, the harness's spans included
	for b, withSpans := range []bool{false, true, true, false} {
		var ph *phase
		if withSpans {
			tr.opBase = b * block
			ph = measure(inst, block, tr)
			traced.merge(ph)
		} else {
			ph = measure(inst, block, nil)
			plain.merge(ph)
		}
		heapSys = ph.after.HeapSys
	}
	verified, bad := inst.verify()
	own := map[string]metric{}
	inst.layerMetrics(own)
	inst.close()
	// blas's share of the op: the slowest rank's compute time as the engine
	// reports it, over the op's wall-clock latency, both from the traced ops.
	own["blas.share_of_op"] = metric{median(traced.computeMs) / median(traced.latencies), "ratio"}

	untracedP50, tracedP50 := median(plain.latencies), median(traced.latencies)
	p90, _ := supportedPercentile(traced.latencies, 90)
	p99, used := supportedPercentile(traced.latencies, 99)
	late, _ := supportedPercentile(traced.lateMs, 99)
	attempted := len(plain.samples) + len(traced.samples) + verified
	failed := plain.badOps + traced.badOps + bad
	fmt.Printf("ops: %d untraced + %d traced in %d blocks U T T U (%d failed), %d verification ops (%d failed); traced op median %.4f ms, p%d %.4f ms; %d harness spans\n",
		len(plain.samples), len(traced.samples), 2*traceBlocks, plain.badOps+traced.badOps, verified, bad, tracedP50, used, p99, len(tr.spans))

	metrics, err := runLadder(w, o.seed, o.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: layer ladder: %w", w.name, err)
	}
	for name, m := range own {
		metrics[name] = m
	}
	metrics["loadgen.op_p90_ms"] = metric{p90, "ms"}
	metrics["loadgen.op_p99_ms"] = metric{p99, "ms"}
	metrics["loadgen.late_p99_ms"] = metric{late, "ms"}
	metrics["trace.overhead_frac"] = metric{tracedP50/untracedP50 - 1, "ratio"}
	metrics["harness.heap_sys_mb"] = metric{float64(heapSys) / 1e6, "MB"}
	metrics["harness.failed_frac"] = metric{float64(failed) / float64(attempted), "ratio"}

	out := filepath.Join(o.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	rec := layerRecord{o.seed, o.seconds, len(traced.samples), untracedP50, tracedP50, metrics, tr.selfTimes()}
	if err := writeLayers(out, w.name, rec); err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// writeLayers merges one workload's record into out/layers.json and renders
// out/REPORT.md from everything recorded so far.
func writeLayers(out, name string, rec layerRecord) error {
	path := filepath.Join(out, "layers.json")
	all := map[string]layerRecord{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			all = map[string]layerRecord{} // a damaged file is rebuilt
		}
	}
	all[name] = rec
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "REPORT.md"), []byte(renderReport(all)), 0o644)
}

// runChild re-executes this binary for one pass of one workload, so that each
// workload starts from a fresh heap, and parses the JSON line it ends with.
func runChild(o options, name string, seed int64, echo bool, pass ...string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-dir", o.dir)
	cmd.Args = append(cmd.Args, pass...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %v: %w", name, pass, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if echo {
		fmt.Printf("%s\n", bytes.Join(lines[:len(lines)-1], []byte("\n")))
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s %v: result line: %w", name, pass, err)
	}
	return &res, nil
}

// runAll runs every workload twice — the untraced pass, then the traced one —
// prints every metric and fails if any op did.
func runAll(o options) error {
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := runChild(o, w.name, o.seed, true, "-trace", strconv.Itoa(trace))
			if err != nil {
				return err
			}
			failed += res.Failed
			fmt.Println()
		}
	}
	fmt.Printf("report: %s\n", filepath.Join(o.dir, "out", "REPORT.md"))
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}
