// core.Simulate walks the compiled SummaGen schedule on per-rank virtual
// clocks. The tests below pin its clock rules — idle until the slowest
// member, Hockney-costed collectives, compute at the device's speed, the
// worst link among a band's members.
package core_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fpm"
	"repro/internal/hockney"
	"repro/internal/partition"
	"repro/internal/trace"
)

// platform has p devices of gflops GFLOPS each.
func platform(p int, gflops float64) *device.Platform {
	devs := make([]*device.Device, p)
	for i := range devs {
		devs[i] = &device.Device{Name: "dev", PeakGFLOPS: gflops, Speed: fpm.Constant{S: gflops}}
	}
	return &device.Platform{Name: "clock", Devices: devs}
}

// bandMembers returns the world ranks named by a collective's label
// "<op>@[r0 r1 ...]".
func bandMembers(t *testing.T, label string) (op string, members []int) {
	t.Helper()
	op, list, ok := strings.Cut(label, "@")
	if !ok {
		t.Fatalf("label %q names no band", label)
	}
	for _, f := range strings.Fields(strings.Trim(list, "[]")) {
		r, err := strconv.Atoi(f)
		if err != nil {
			t.Fatalf("label %q: %v", label, err)
		}
		members = append(members, r)
	}
	return op, members
}

// TestVirtualClockBcast: a band collective starts at its members' latest
// clock, a member that arrives earlier idles until then, and every member is
// charged the collective's Hockney cost. With α = 1 s and β = 0, each
// two-member band costs 2 s to create and 1 s per broadcast.
func TestVirtualClockBcast(t *testing.T) {
	// Rank 2 owns grid row 1 alone, so it reaches column 0's band {0,2}
	// at time 0, while rank 0 first spends 4 s on row 0's band {0,1}
	// (creation and two broadcasts). Rank 1 then reaches column 1's band
	// {1,2} at 4 s and waits for rank 2 to finish column 0 at 8 s.
	l := &partition.Layout{N: 8, P: 3, GridRows: 2, GridCols: 2,
		RowHeights: []int{2, 6}, ColWidths: []int{3, 5}, Owner: []int{0, 1, 2, 2}}
	rep, err := core.Simulate(core.Config{Layout: l, Platform: platform(3, 1), Link: hockney.Link{Alpha: 1}})
	if err != nil {
		t.Fatal(err)
	}
	commEnd := make([]float64, 3)
	for _, e := range rep.Timeline.Events() {
		if e.Kind == trace.Comm {
			commEnd[e.Rank] = e.End
		}
	}
	for r, want := range []struct{ idle, comm, end float64 }{{0, 8, 8}, {4, 8, 12}, {4, 8, 12}} {
		b := rep.PerRank[r]
		if math.Abs(b.IdleTime-want.idle) > 1e-12 || math.Abs(b.CommTime-want.comm) > 1e-12 || math.Abs(commEnd[r]-want.end) > 1e-12 {
			t.Errorf("rank %d: idle %v, comm %v, last collective ends at %v; want %v, %v, %v",
				r, b.IdleTime, b.CommTime, commEnd[r], want.idle, want.comm, want.end)
		}
	}
}

// TestVirtualCompute: a lone rank's clock advances by its flops at its
// device's speed, 2·500³ flops at 0.125 GFLOPS taking 2 s, with no
// communication.
func TestVirtualCompute(t *testing.T) {
	l, err := partition.BlockCyclic(500, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Simulate(core.Config{Layout: l, Platform: platform(1, 0.125)})
	if err != nil {
		t.Fatal(err)
	}
	b := rep.PerRank[0]
	if b.ComputeTime != 2 || b.Flops != 2.5e8 || b.CommTime != 0 || rep.ExecutionTime != 2 {
		t.Fatalf("breakdown %+v, execution time %v; want 2 s of compute for 2.5e8 flops", b, rep.ExecutionTime)
	}
}

// TestWorstLinkAmong: a band's collectives are costed over the slowest link
// among its members — the fast one for the pair {0,1}, the slow one for
// {0,1,2} and {1,2} — and over Config.Link for every band without LinkFor.
func TestWorstLinkAmong(t *testing.T) {
	fast := hockney.Link{Alpha: 1e-6, Beta: 1e-10}
	slow := hockney.Link{Alpha: 1e-4, Beta: 1e-8}
	linkFor := func(a, b int) hockney.Link {
		if a == 0 && b == 1 || a == 1 && b == 0 {
			return fast
		}
		return slow
	}
	// Grid row 0 is the band {0,1,2}, row 1 the band {0,1} and column 2
	// the band {1,2}; columns 0 and 1 have one owner each.
	l := &partition.Layout{N: 9, P: 3, GridRows: 2, GridCols: 3,
		RowHeights: []int{4, 5}, ColWidths: []int{3, 3, 3}, Owner: []int{0, 1, 2, 0, 1, 1}}
	for _, tc := range []struct {
		name    string
		linkFor func(a, b int) hockney.Link
		want    func(members []int) hockney.Link
	}{
		{"LinkFor", linkFor, func(m []int) hockney.Link {
			if len(m) == 2 && m[0] == 0 && m[1] == 1 {
				return fast
			}
			return slow
		}},
		{"no LinkFor", nil, func([]int) hockney.Link { return slow }},
	} {
		rep, err := core.Simulate(core.Config{Layout: l, Platform: platform(3, 1), Link: slow, LinkFor: tc.linkFor})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		bands := map[string]bool{}
		for _, e := range rep.Timeline.Events() {
			if e.Kind != trace.Comm {
				continue
			}
			op, members := bandMembers(t, e.Label)
			bands[strings.TrimPrefix(e.Label, op)] = true
			link := tc.want(members)
			cost := hockney.BcastTime(hockney.BcastBinomial, link, e.Bytes, len(members))
			if op == "split" {
				cost = float64(hockney.CeilLog2(len(members))) * link.Alpha * 2
			}
			if e.End != e.Start+cost {
				t.Errorf("%s: rank %d %s lasts %v, want %v over %+v", tc.name, e.Rank, e.Label, e.End-e.Start, cost, link)
			}
		}
		for _, b := range []string{"@[0 1 2]", "@[0 1]", "@[1 2]"} {
			if !bands[b] {
				t.Errorf("%s: no collective on band %s (bands %v)", tc.name, b, bands)
			}
		}
	}
}
