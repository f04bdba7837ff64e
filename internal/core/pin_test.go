package core

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/hockney"
	"repro/internal/matrix"
	"repro/internal/partition"
	"repro/internal/trace"
)

// timelinePin is what a multiply's Timeline must keep, rank by rank, however
// the engine derives its schedule: event count and bytes per kind, total
// flops, and the set of labels. Times are left out; in Multiply they are wall
// clock.
func timelinePin(tl *trace.Timeline, p int) string {
	type perKind struct{ events, bytes int }
	var sb strings.Builder
	for r := 0; r < p; r++ {
		kinds := map[trace.Kind]*perKind{trace.Compute: {}, trace.Comm: {}, trace.Idle: {}}
		labels := map[string]bool{}
		var flops float64
		for _, e := range tl.Events() {
			if e.Rank != r {
				continue
			}
			kinds[e.Kind].events++
			kinds[e.Kind].bytes += e.Bytes
			flops += e.Flops
			labels[e.Label] = true
		}
		set := make([]string, 0, len(labels))
		for l := range labels {
			set = append(set, l)
		}
		sort.Strings(set)
		fmt.Fprintf(&sb, "  rank %d:", r)
		for _, k := range []trace.Kind{trace.Compute, trace.Comm, trace.Idle} {
			fmt.Fprintf(&sb, " %v %d/%dB", k, kinds[k].events, kinds[k].bytes)
		}
		fmt.Fprintf(&sb, " flops %.0f labels %s\n", flops, strings.Join(set, " "))
	}
	return sb.String()
}

// reportPin renders every numeric field of a report bit for bit (%x prints a
// float64 exactly).
func reportPin(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  N=%d exec=%x comp=%x comm=%x gflops=%x energy=%x ratio=%x\n",
		rep.N, rep.ExecutionTime, rep.ComputeTime, rep.CommTime, rep.GFLOPS, rep.DynamicEnergyJ, rep.OptimalityRatio)
	for _, b := range rep.PerRank {
		fmt.Fprintf(&sb, "  rank %d: comp=%x comm=%x idle=%x bytes=%d flops=%x finish=%x\n",
			b.Rank, b.ComputeTime, b.CommTime, b.IdleTime, b.BytesMoved, b.Flops, b.Finish)
	}
	return sb.String()
}

// schedulePins runs the pinned multiplies and renders their pins.
func schedulePins(t *testing.T) string {
	const n, simN = 64, 4096
	pl := device.HCLServer1()
	rng := rand.New(rand.NewSource(11))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	var sb strings.Builder
	for _, sh := range partition.ExtendedShapes {
		l := buildLayout(t, sh, n, benchSpeeds)
		rl, err := Multiply(a, b, c, Config{Layout: l})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(Config{Layout: l, Platform: pl})
		if err != nil {
			t.Fatal(err)
		}
		big, err := Simulate(Config{Layout: buildLayout(t, sh, simN, benchSpeeds), Platform: pl})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%v real N=%d\n%s", sh, n, timelinePin(rl.Timeline, l.P))
		fmt.Fprintf(&sb, "%v simulated N=%d\n%s", sh, n, timelinePin(sim.Timeline, l.P))
		fmt.Fprintf(&sb, "%v simulated N=%d report\n%s", sh, simN, reportPin(big))
	}
	return sb.String()
}

// TestSchedulePinned pins the schedule every multiply runs, for the four paper
// shapes and the L rectangle: at N = 64 each rank's Timeline in Multiply and in
// Simulate on HCLServer1 (event count and bytes per kind, total flops,
// the set of labels), and the simulated report at N = 4096 bit for bit. The
// golden file was recorded from the engine that re-walked the layout grid on
// every call, so any way of deriving the schedule must reproduce it.
func TestSchedulePinned(t *testing.T) {
	comparePin(t, "testdata/schedule.golden", schedulePins(t))
}

// comparePin fails with the first differing lines unless got equals the
// golden file's contents.
func comparePin(t *testing.T, golden, got string) {
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", golden, i+1, g, w)
		}
	}
}

// eventsPin renders a digest of each rank's events in start order: kind,
// start, end, bytes, flops and label, the times bit for bit.
func eventsPin(tl *trace.Timeline, p int) string {
	hs := make([]hash.Hash64, p)
	for r := range hs {
		hs[r] = fnv.New64a()
	}
	for _, e := range tl.Events() {
		fmt.Fprintf(hs[e.Rank], "%d %x %x %d %x %s\n", e.Kind, e.Start, e.End, e.Bytes, e.Flops, e.Label)
	}
	var sb strings.Builder
	for r, h := range hs {
		fmt.Fprintf(&sb, "  rank %d events %016x\n", r, h.Sum64())
	}
	return sb.String()
}

// simulationPins renders Simulate's report bit for bit, each rank's Timeline
// pin and each rank's event digest on layouts the paper shapes do not reach:
// seeded random layouts at P = 1–6 on HCLServer1's devices taken in turn, one
// layout on a two-level LinkFor (fast within pairs of ranks, 10 GbE across),
// and one with flat broadcasts.
func simulationPins(t *testing.T) string {
	const n = 8192
	hcl := device.HCLServer1()
	platform := func(p int) *device.Platform {
		pl := &device.Platform{Name: "pin", StaticPowerW: hcl.StaticPowerW, Interconnect: hcl.Interconnect}
		for r := 0; r < p; r++ {
			pl.Devices = append(pl.Devices, hcl.Devices[r%hcl.P()])
		}
		return pl
	}
	var sb strings.Builder
	pin := func(name string, cfg Config) {
		rep, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := cfg.Layout.P
		fmt.Fprintf(&sb, "%s\n%s%s%s", name, reportPin(rep), timelinePin(rep.Timeline, p), eventsPin(rep.Timeline, p))
	}
	rng := rand.New(rand.NewSource(46))
	for k := 0; k < 36; k++ {
		p := 1 + k%6
		l := randomLayout(rng, n, p)
		pin(fmt.Sprintf("random %d P=%d %dx%d owners %v", k, p, l.GridRows, l.GridCols, l.Owner), Config{Layout: l, Platform: platform(p)})
	}
	twoLevel := func(a, b int) hockney.Link {
		if a/2 == b/2 {
			return hockney.IntraNode
		}
		return hockney.TenGbE
	}
	l := randomLayout(rng, n, 6)
	pin(fmt.Sprintf("two-level LinkFor P=6 %dx%d owners %v", l.GridRows, l.GridCols, l.Owner),
		Config{Layout: l, Platform: platform(6), LinkFor: twoLevel})
	pin("BcastFlat square-corner", Config{Layout: buildLayout(t, partition.SquareCorner, n, benchSpeeds),
		Platform: hcl, BcastAlg: hockney.BcastFlat})
	return sb.String()
}

// TestSimulationPinned pins Simulate on the layouts of simulationPins: every
// report field bit for bit, each rank's Timeline pin and a digest of each
// rank's events with their times. The golden file was recorded from the
// simulator that ran every rank as a goroutine on virtual clocks, so any
// simulator must reproduce it.
func TestSimulationPinned(t *testing.T) {
	comparePin(t, "testdata/simulation.golden", simulationPins(t))
}
