package core

import (
	"fmt"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/slab"
	"repro/internal/trace"
)

// RunRank executes one rank's share of C = A·B over an externally-managed
// runtime (e.g. the distributed TCP runtime in internal/netmpi, where each
// OS process hosts one rank), on the calling goroutine.
//
// Data ownership follows the layout: the engine reads from a and b only
// the sub-partitions this rank owns (plus whole grid rows/columns it owns
// exclusively) and writes to c only the cells it owns — so in a
// distributed setting each process only needs its own partitions of A and
// B populated, and owns its partition of C afterwards. Passing fully
// replicated matrices also works and is the easy path for demos.
//
// RunRank keeps no Timeline unless cfg.Span is enabled, and then only to
// stamp the rank's spans, which it adds under cfg.Span once the rank
// returns, as MultiplyOn does: the runtime's own totals (p.Compute, and for
// netmpi Endpoint.Breakdown) are the rank's record. Every program runs its
// ranks through MultiplyOn, which returns a Report; the benchmark module
// (bench/), which is frozen, is RunRank's only caller outside tests, and
// RunRank goes when bench/ is next opened for edits (ROADMAP item 16).
func RunRank(p Proc, cfg Config, a, b, c *matrix.Dense) error {
	s, err := cfg.validate(a, b, c)
	if err != nil {
		return err
	}
	if p.Size() != cfg.Layout.P {
		return fmt.Errorf("core: runtime has %d ranks but layout has %d processors", p.Size(), cfg.Layout.P)
	}
	rs := &s.ranks[p.Rank()]
	var tl *trace.Timeline
	if cfg.Span != (obs.SpanHandle{}) {
		tl = trace.NewCap(rs.events)
		tl.Origin = time.Now()
	}
	rec := newRecord(tl, s.layout.P, cfg.Span)
	defer rec.release()
	waLen, wbLen := rs.workLens(s.layout.N)
	wa, wb := slab.Get(waLen), slab.Get(wbLen)
	defer slab.Put(wa)
	defer slab.Put(wb)
	err = rankMain(p, &cfg, s, rec, a, b, c, wa, wb)
	rec.spans(cfg.Span, cfg.Checkpoint != nil)
	return err
}
