package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// record is what a multiply's ranks write as they run, one stamp per
// instant: each op on the Timeline (times in seconds since its Origin;
// labels, bytes and flops the schedule op's own) and, with cfg.Span enabled,
// each rank's stage boundaries. The ranks make no obs call: spans turns the
// record into their spans once they have returned. RunRank without spans
// runs with the zero record, which records nothing.
type record struct {
	tl *trace.Timeline
	sc *spanScratch // nil: spans off
}

// spanScratch is what only spans need: each rank's stamps, by rank, and the
// batch made from them. It is recycled, so that a traced multiply allocates
// only the recorder's room for the batch and the Report's Imbalance.
type spanScratch struct {
	ranks []stamps
	batch []obs.Span
}

var spanScratches = sync.Pool{New: func() any { return new(spanScratch) }}

// stamps are a rank's stage boundaries: stage k (bcastA, bcastB, dgemm) runs
// from at[k] to at[k+1]. A failing stage is stamped to end when it fails.
type stamps struct {
	at    [4]time.Duration
	n     int    // boundaries stamped
	err   error  // the failing stage's
	rects []rect // the dgemm stage's DGEMMs, which a checkpoint may split
}

// processStart is the zero record's origin: only Proc.Compute reads its stamps.
var processStart = time.Now()

// newRecord returns the record of a multiply of p ranks on tl.
func newRecord(tl *trace.Timeline, p int, span obs.SpanHandle) record {
	r := record{tl: tl}
	if span != (obs.SpanHandle{}) {
		r.sc = spanScratches.Get().(*spanScratch)
		r.sc.ranks = slices.Grow(r.sc.ranks[:0], p)[:p]
		clear(r.sc.ranks)
	}
	return r
}

// release recycles the scratch once the spans and the report are made.
func (r record) release() {
	if r.sc != nil {
		clear(r.sc.batch)
		spanScratches.Put(r.sc)
	}
}

func (r record) now() time.Duration {
	if r.tl == nil {
		return time.Since(processStart)
	}
	return time.Since(r.tl.Origin)
}

// add records rank's op of kind from start to end.
func (r record) add(rank int, kind trace.Kind, label string, bytes int, flops float64, start, end time.Duration) {
	if r.tl != nil {
		r.tl.Add(trace.Event{Rank: rank, Kind: kind, Start: start.Seconds(), End: end.Seconds(), Bytes: bytes, Flops: flops, Label: label})
	}
}

// stage stamps rank's next stage boundary; a non-nil err fails the stage it
// ends.
func (r record) stage(rank int, err error) {
	if r.sc != nil {
		st := &r.sc.ranks[rank]
		st.at[st.n], st.err = r.now(), err
		st.n++
	}
}

// fail ends rank's failing stage and returns err tagged with the stage.
func (r record) fail(rank int, stage string, err error) error {
	r.stage(rank, err)
	return fmt.Errorf("%s stage: %w", stage, err)
}

// spans adds the ranks' spans under span in one batch and returns it, or nil
// with spans off. Per rank, ascending: a span per stage it ran, the failing
// one tagged "error", and under its dgemm stage a span per DGEMM it finished,
// with its flops, and with a Checkpointer a ckpt-restore span before the
// first DGEMM and a ckpt-save span after each. A DGEMM's times are its
// Timeline event's, and a checkpoint span lasts from the stamp before it to
// the one after it.
func (r record) spans(span obs.SpanHandle, ckpt bool) []obs.Span {
	if r.sc == nil {
		return nil
	}
	batch := r.sc.batch[:0]
	for rank := range r.sc.ranks {
		st := &r.sc.ranks[rank]
		add := func(name string, parent int, start, end time.Duration, attrs []obs.Attr) {
			batch = append(batch, obs.Span{Name: name, Rank: rank, Parent: parent,
				Start: r.tl.Origin.Add(start), End: r.tl.Origin.Add(end), Attrs: attrs})
		}
		for k := 0; k+1 < st.n; k++ {
			add([...]string{"bcastA", "bcastB", "dgemm"}[k], -1, st.at[k], st.at[k+1], nil)
		}
		if st.err != nil {
			batch[len(batch)-1].Attrs = []obs.Attr{{Key: "error", Kind: obs.KindStr, Str: st.err.Error()}}
		}
		if st.n < len(st.at) {
			continue
		}
		dgemm, k, last := len(batch)-1, 0, st.at[2]
		for _, e := range r.tl.Recorded() {
			if e.Rank != rank || e.Kind != trace.Compute || e.Flops == 0 {
				continue // not this rank's DGEMM: a restored cell has no flops
			}
			start, end := fromSeconds(e.Start), fromSeconds(e.End)
			if ckpt {
				add([...]string{"ckpt-restore", "ckpt-save"}[min(k, 1)], dgemm, last, start, nil)
			}
			add(e.Label, dgemm, start, end, st.rects[k].attrs[:])
			k, last = k+1, end
		}
		if ckpt {
			add([...]string{"ckpt-restore", "ckpt-save"}[min(k, 1)], dgemm, last, st.at[3], nil)
		}
	}
	r.sc.batch = batch
	span.AddChildren(batch)
	return batch
}

// fromSeconds is the stamp a Timeline time was taken from.
func fromSeconds(s float64) time.Duration { return time.Duration(math.Round(s * 1e9)) }
