package core

import (
	"errors"
	"fmt"

	"repro/internal/hockney"
	"repro/internal/trace"
)

// Simulate runs SummaGen's compiled schedule on cfg.Platform without
// numerics: every rank keeps a virtual clock, computation is charged at its
// device's FPM speed and communication by the Hockney model (cfg.Link,
// LinkFor and BcastAlg), so paper-scale problems (N ≈ 38k) cost
// microseconds. The report's Timeline holds the events each rank would
// record. Span and Checkpoint are ignored.
func Simulate(cfg Config) (*Report, error) {
	s, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if cfg.Platform == nil {
		return nil, errors.New("core: Simulate requires a Platform")
	}
	tl, err := simulate(&cfg, s)
	if err != nil {
		return nil, err
	}
	return buildReport(&cfg, s, tl, nil)
}

// simRank is one rank's place in the walk.
type simRank struct {
	clock float64
	ax    axis // the stage of its next band op
	i     int  // the index of its next band op in the stage
	done  bool // its rectangles are charged
}

// simulate walks s. Each rank runs its band ops in order, stage 1 then 2,
// and then its rectangles. A band op fires once it is the next op of every
// member, at the members' latest clock; a member that got there earlier
// idles up to it. The band's first op charges its communicator's creation,
// CeilLog2(k)·2α, before its broadcast; every op broadcasts 8·h·w bytes in
// hockney.BcastTime over the slowest link among the band's k members. A
// rectangle costs its flops at the device's speed taken at the rank's whole
// area (the workload measure of the FPMs). A walk that cannot advance is an
// error.
func simulate(cfg *Config, s *schedule) (*trace.Timeline, error) {
	if err := cfg.link().Validate(); err != nil {
		return nil, err
	}
	l := &s.layout
	gflops := make([]float64, l.P)
	for r := range gflops {
		if gflops[r] = cfg.Platform.Devices[r].GFLOPS(float64(s.areas[r])); gflops[r] <= 0 {
			return nil, fmt.Errorf("core: device %d has non-positive speed", r)
		}
	}
	ranks := make([]simRank, l.P)
	links := make([]hockney.Link, len(s.labels)) // a band's, found at its first op
	tl := trace.NewCap(s.events)
	// next returns rank r's next band op, skipping local copies, or nil.
	next := func(r int) *bandOp {
		sr, ops := &ranks[r], &s.ranks[r].ops
		for ; sr.ax <= axisB; sr.ax, sr.i = sr.ax+1, 0 {
			for ; sr.i < len(ops[sr.ax]); sr.i++ {
				if o := &ops[sr.ax][sr.i]; o.procs != nil {
					return o
				}
			}
		}
		return nil
	}
	// collective charges every member of o's band cost seconds from the
	// members' latest clock, idling those that arrived earlier.
	collective := func(o *bandOp, label string, cost float64, bytes int) {
		var at float64
		for _, m := range o.procs {
			if c := ranks[m].clock; c > at {
				at = c
			}
		}
		for _, m := range o.procs {
			sr := &ranks[m]
			if sr.clock < at {
				tl.Add(trace.Event{Rank: m, Kind: trace.Idle, Start: sr.clock, End: at, Label: label})
				sr.clock = at
			}
			start := sr.clock
			sr.clock += cost
			tl.Add(trace.Event{Rank: m, Kind: trace.Comm, Start: start, End: sr.clock, Bytes: bytes, Label: label})
		}
	}
	// ready reports whether o is the next op of every member of its band.
	ready := func(o *bandOp) bool {
		for _, m := range o.procs {
			if n := next(m); n == nil || n.band != o.band || n.r0 != o.r0 || n.c0 != o.c0 {
				return false
			}
		}
		return true
	}
	for left := l.P; left > 0; {
		moved := false
		for r := range ranks {
			sr := &ranks[r]
			for !sr.done {
				o := next(r)
				if o == nil {
					for _, rc := range s.ranks[r].rects {
						start := sr.clock
						sr.clock += rc.flops / (gflops[r] * 1e9)
						tl.Add(trace.Event{Rank: r, Kind: trace.Compute, Start: start, End: sr.clock, Flops: rc.flops, Label: rc.label})
					}
					sr.done, left, moved = true, left-1, true
					break
				}
				if !ready(o) {
					break
				}
				label, k := &s.labels[o.band], len(o.procs)
				if o.split {
					links[o.band] = cfg.bandLink(o.procs)
					collective(o, label[0], float64(hockney.CeilLog2(k))*links[o.band].Alpha*2, 0)
				}
				bytes := 8 * o.h * o.w
				collective(o, label[1], hockney.BcastTime(cfg.BcastAlg, links[o.band], bytes, k), bytes)
				for _, m := range o.procs {
					ranks[m].i++ // ready left every member's cursor at o
				}
				moved = true
			}
		}
		if !moved {
			return nil, fmt.Errorf("core: simulated schedule is stuck with %d ranks waiting", left)
		}
	}
	return tl, nil
}

// bandLink returns the link a band's collectives are costed with: the
// slowest LinkFor pair among its members by the cost of a 1 MiB message, or
// c.link() without LinkFor. A collective is bounded by its slowest hop, the
// standard conservative model for hierarchical platforms.
func (c *Config) bandLink(members []int) hockney.Link {
	if c.LinkFor == nil || len(members) < 2 {
		return c.link()
	}
	const probe = 1 << 20
	worst := c.LinkFor(members[0], members[1])
	worstCost := worst.SendTime(probe)
	for i := range members {
		for j := i + 1; j < len(members); j++ {
			if l := c.LinkFor(members[i], members[j]); l.SendTime(probe) > worstCost {
				worst, worstCost = l, l.SendTime(probe)
			}
		}
	}
	return worst
}
