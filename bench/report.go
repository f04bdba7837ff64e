package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// renderReport writes "where the time goes" for every workload traced so far:
// the op median split into harness-span self times, the models beside the
// measurements, and a verdict on each past performance claim.
func renderReport(all map[string]layerRecord) string {
	var b strings.Builder
	b.WriteString("# Where the time goes\n\n")
	b.WriteString("Written by the traced pass (`--trace 1`); end-to-end numbers come from the untraced pass only. ")
	b.WriteString("Self time is a span's duration minus what its children cover, summed over the name's spans in an op, median over ops; a name that runs on 3 lanes (one per rank) is also shown per lane, which is what to set against the op. ")
	b.WriteString("Every ratio names its base.\n")
	for _, w := range workloads {
		rec, ok := all[w.name]
		if !ok {
			continue
		}
		m := rec.Metrics
		fmt.Fprintf(&b, "\n## %s\n\n", w.name)
		fmt.Fprintf(&b, "seed %d, %d traced ops. Op median %.4g ms untraced, %.4g ms traced: tracing overhead %+.1f%% of the untraced median.\n\n",
			rec.Seed, rec.OpsTraced, rec.UntracedP50, rec.TracedP50, 100*m["trace.overhead_frac"].Value)

		b.WriteString("| span | lanes | self ms per op | per lane | per lane, share of traced op median |\n|---|---|---|---|---|\n")
		names := make([]string, 0, len(rec.SelfMs))
		for name := range rec.SelfMs {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return rec.SelfMs[names[i]].Ms > rec.SelfMs[names[j]].Ms })
		for _, name := range names {
			st := rec.SelfMs[name]
			perLane := st.Ms / float64(max(1, st.Lanes))
			fmt.Fprintf(&b, "| %s | %d | %.4g | %.4g | %.0f%% |\n", name, st.Lanes, st.Ms, perLane, 100*perLane/rec.TracedP50)
		}

		suffix := "inproc"
		if w.tcp {
			suffix = "tcp"
		}
		b.WriteString("\nModel beside measurement:\n\n")
		fmt.Fprintf(&b, "- broadcast: measured 2 MiB 3-rank TCP broadcast is %.2f× what `hockney.BcastTime` predicts for the fitted link (α %.1f µs, β %.3f ns/B).\n",
			m["hockney.bcast_model_ratio"].Value, m["netmpi.alpha_us"].Value, m["netmpi.beta_ns_per_byte"].Value)
		fmt.Fprintf(&b, "- communication volume: the transport delivered %.3f× the 8·`Layout.CommVolumes` bytes the partition model predicts (%.0f bytes in %.0f frames per multiply at N=%d).\n",
			m["netmpi.comm_volume_ratio"].Value, m["netmpi.bytes_per_op"].Value, m["netmpi.frames_per_op"].Value, w.n)
		fmt.Fprintf(&b, "- kernel: the workload's cell DGEMMs run at %.2f GFLOP/s, %.0f%% of the roofline min(scalar peak %.2f GFLOP/s on 2 threads, copy %.1f GB/s × %.1f flop/B); blas is %.0f%% of the op.\n",
			m["blas.dgemm_cells_gflops"].Value, 100*m["blas.roofline_frac"].Value, m["machine.scalar_peak_gflops_2t"].Value,
			m["machine.copy_gbps"].Value, m["blas.flops_per_byte"].Value, 100*m["blas.share_of_op"].Value)

		b.WriteString("\nPast claims, on this workload's sizes:\n\n")
		noise := m["core.op_spread."+suffix].Value
		fmt.Fprintf(&b, "- overlap (PR 6): %s\n", claim(m["core.overlap_ratio."+suffix].Value, noise,
			"op median with `DisableOverlap`", "the default (overlap on)", suffix))
		fmt.Fprintf(&b, "- CRC wire v2 (PR 9): %s\n", claim(m["netmpi.wire_v1_ratio"].Value, m["core.op_spread.tcp"].Value,
			"op median on a mesh pinned to wire v1 (no CRC)", "the negotiated wire v2", "tcp"))
		fmt.Fprintf(&b, "- spans on (PR 7): %s\n", claim(m["core.obs_on_ratio."+suffix].Value, noise,
			"op median with an `obs.Recorder` attached", "no recorder", suffix))
	}
	return b.String()
}

// claim words one verdict: the ratio with its base, or "unresolved" when the
// default configuration's own op-to-op spread is wider than the difference.
func claim(ratio, noise float64, what, base, runtime string) string {
	diff := ratio - 1
	s := fmt.Sprintf("%s is %.3f× that of %s (%s runtime)", what, ratio, base, runtime)
	if math.Abs(diff) <= noise {
		return s + fmt.Sprintf(" — unresolved: the %.1f%% difference is inside the default's own spread of %.1f%%.", 100*math.Abs(diff), 100*noise)
	}
	return s + fmt.Sprintf(" — resolved: the %.1f%% difference exceeds the default's own spread of %.1f%%.", 100*math.Abs(diff), 100*noise)
}
