package core

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hockney"
	"repro/internal/partition"
	"repro/internal/trace"
)

// TestSimulateClockRules checks Simulate's cost rules event by event on
// hand-built layouts: every rank's events follow each other with no gap from
// time 0; a band member that arrives early idles until the band's slowest
// member arrives; a band's split costs CeilLog2(k)·2α and each broadcast
// hockney.BcastTime over the slowest link among the band's members; and a
// rectangle costs its flops at its device's speed.
func TestSimulateClockRules(t *testing.T) {
	fast, slow := hockney.Link{Alpha: 1e-6, Beta: 1e-9}, hockney.Link{Alpha: 1e-4, Beta: 1e-8}
	slowPair := func(x, y int) func(a, b int) hockney.Link {
		return func(a, b int) hockney.Link {
			if a == x && b == y || a == y && b == x {
				return slow
			}
			return fast
		}
	}
	// Rank 2 owns grid row 1 alone and joins no row band, so it reaches
	// column 0's band at time 0 and rank 1 reaches column 1's band long
	// before rank 2 has finished column 0.
	twoByTwo := &partition.Layout{N: 8, P: 3, GridRows: 2, GridCols: 2,
		RowHeights: []int{2, 6}, ColWidths: []int{3, 5}, Owner: []int{0, 1, 2, 2}}
	// One grid row of four owners: a four-member band, where flat and
	// binomial broadcasts differ (3 against 2 rounds).
	oneByFour := &partition.Layout{N: 8, P: 4, GridRows: 1, GridCols: 4,
		RowHeights: []int{8}, ColWidths: []int{1, 2, 2, 3}, Owner: []int{0, 1, 2, 3}}
	commTime := map[hockney.BcastAlgorithm]float64{}
	for _, tc := range []struct {
		name   string
		l      *partition.Layout
		x, y   int // the one slow pair
		alg    hockney.BcastAlgorithm
		idlers []int // ranks that must idle
	}{
		{"2x2 binomial", twoByTwo, 0, 2, hockney.BcastBinomial, []int{1, 2}},
		{"1x4 binomial", oneByFour, 2, 3, hockney.BcastBinomial, nil},
		{"1x4 flat", oneByFour, 2, 3, hockney.BcastFlat, nil},
	} {
		pl := testPlatform(tc.l.P)
		rep, err := Simulate(Config{Layout: tc.l, Platform: pl, LinkFor: slowPair(tc.x, tc.y), BcastAlg: tc.alg})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.l == oneByFour {
			commTime[tc.alg] = rep.CommTime
		}
		clock := make([]float64, tc.l.P)
		idled := map[int]bool{}
		for _, e := range rep.Timeline.Events() {
			if e.Start != clock[e.Rank] {
				t.Fatalf("%s: rank %d event %+v starts at %v, not where its last ended", tc.name, e.Rank, e, clock[e.Rank])
			}
			clock[e.Rank] = e.End
			var cost float64
			switch e.Kind {
			case trace.Idle:
				idled[e.Rank] = true
				continue
			case trace.Compute:
				cost = e.Flops / (pl.Devices[e.Rank].GFLOPS(float64(tc.l.Areas()[e.Rank])) * 1e9)
			case trace.Comm:
				op, members := parseBandLabel(t, e.Label)
				link := fast
				if containsBoth(members, tc.x, tc.y) {
					link = slow
				}
				if op == "split" {
					cost = float64(hockney.CeilLog2(len(members))) * link.Alpha * 2
				} else {
					cost = hockney.BcastTime(tc.alg, link, e.Bytes, len(members))
				}
			}
			if e.End != e.Start+cost {
				t.Fatalf("%s: rank %d event %+v lasts %v, want %v", tc.name, e.Rank, e, e.End-e.Start, cost)
			}
		}
		for _, r := range tc.idlers {
			if !idled[r] {
				t.Errorf("%s: rank %d never idled", tc.name, r)
			}
		}
		if len(idled) != len(tc.idlers) {
			t.Errorf("%s: ranks %v idled, want %v", tc.name, idled, tc.idlers)
		}
	}
	// The idle ends where the slowest member arrives: rank 2 waits at column
	// 0's split for rank 0 to finish row 0, which is a split and two
	// broadcasts over the fast link.
	rep, err := Simulate(Config{Layout: twoByTwo, Platform: testPlatform(3), LinkFor: slowPair(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	rowDone := float64(hockney.CeilLog2(2))*fast.Alpha*2 + fast.SendTime(8*2*3) + fast.SendTime(8*2*5)
	for _, e := range rep.Timeline.Events() {
		if e.Rank == 2 {
			if e.Kind != trace.Idle || e.Start != 0 || e.End != rowDone || e.Label != "split@[0 2]" {
				t.Fatalf("rank 2's first event is %+v, want idle on split@[0 2] from 0 to %v", e, rowDone)
			}
			break
		}
	}
	if f, b := commTime[hockney.BcastFlat], commTime[hockney.BcastBinomial]; !(f > b) {
		t.Errorf("four-member band: flat comm time %v not above binomial %v", f, b)
	}
}

// TestSimulateStuckWalkIsAnError: a schedule whose members issue a band's
// ops in different orders cannot be walked, and Simulate says so instead of
// hanging.
func TestSimulateStuckWalkIsAnError(t *testing.T) {
	// Grid rows 0 and 1 are both bands of ranks 0 and 1.
	l := &partition.Layout{N: 8, P: 2, GridRows: 2, GridCols: 2,
		RowHeights: []int{4, 4}, ColWidths: []int{4, 4}, Owner: []int{0, 1, 0, 1}}
	s := compile(l) // not the shared cache: the schedule is broken below
	ops := s.ranks[1].ops[axisA]
	slices.Reverse(ops) // rank 1 now starts with row 1, rank 0 with row 0
	if _, err := simulate(&Config{Layout: l, Platform: testPlatform(2)}, s); err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("walk of a mis-ordered schedule: %v, want a stuck error", err)
	}
}

// parseBandLabel splits a collective's label "<op>@[r0 r1 ...]".
func parseBandLabel(t *testing.T, label string) (op string, members []int) {
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

func containsBoth(rs []int, x, y int) bool {
	var hx, hy bool
	for _, r := range rs {
		hx, hy = hx || r == x, hy || r == y
	}
	return hx && hy
}
