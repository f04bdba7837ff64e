package obs

import (
	"fmt"
	"io"
	"time"

	"repro/internal/trace"
)

// The merged export places each layer in its own Chrome "process" lane so
// service spans, per-rank engine spans and the engine's own timeline
// events never have to nest against each other's clocks.
const (
	// ChromePIDService holds service-scoped spans (rank < 0).
	ChromePIDService = 0
	// ChromePIDEngine holds rank-scoped spans (tid = rank).
	ChromePIDEngine = 1
	// ChromePIDTimeline holds trace.Timeline events (tid = rank).
	ChromePIDTimeline = 2
	// ChromePIDRemoteBase is the first pid for shipped per-rank lanes: a
	// RemoteTrace for rank r renders under pid ChromePIDRemoteBase + r,
	// one process lane per remote rank.
	ChromePIDRemoteBase = 3
)

// ChromeEvents converts spans to complete ("X") trace events with
// timestamps in microseconds since t0. Service spans (Rank < 0) land on
// pid ChromePIDService tid 0; rank spans on pid ChromePIDEngine with tid =
// rank. Parent names and attributes become args.
func ChromeEvents(spans []Span, t0 time.Time) []trace.ChromeEvent {
	out := make([]trace.ChromeEvent, 0, len(spans))
	for _, s := range spans {
		pid, tid := ChromePIDService, 0
		if s.Rank >= 0 {
			pid, tid = ChromePIDEngine, s.Rank
		}
		end := s.End
		if end.IsZero() {
			end = s.Start // open span: render as instantaneous
		}
		var args map[string]any
		if len(s.Attrs) > 0 || s.Parent >= 0 {
			args = make(map[string]any, len(s.Attrs)+1)
			for _, a := range s.Attrs {
				args[a.Key] = a.Value()
			}
			if s.Parent >= 0 && s.Parent < len(spans) {
				args["parent"] = spans[s.Parent].Name
			}
		}
		out = append(out, trace.ChromeEvent{
			Name:     s.Name,
			Category: "span",
			Phase:    "X",
			TsUs:     float64(s.Start.Sub(t0)) / float64(time.Microsecond),
			DurUs:    float64(end.Sub(s.Start)) / float64(time.Microsecond),
			PID:      pid,
			TID:      tid,
			Args:     args,
		})
	}
	return out
}

// RemoteChromeEvents renders one shipped rank trace as its own process
// lane (pid ChromePIDRemoteBase + rank), with every timestamp rebased onto
// the local clock: remote wall time t becomes t − Offset, then microseconds
// since t0 like every other lane. The lane carries a process_name metadata
// event annotating the applied offset and its uncertainty, and the lane's
// root spans repeat both as args so the numbers survive into tools that
// drop metadata.
func RemoteChromeEvents(rt RemoteTrace, t0 time.Time) []trace.ChromeEvent {
	pid := ChromePIDRemoteBase + rt.Rank
	name := fmt.Sprintf("rank %d (remote)", rt.Rank)
	if rt.OffsetSeconds != 0 || rt.UncertaintySeconds != 0 {
		name = fmt.Sprintf("rank %d (remote, clock offset %+.3fms ± %.3fms)",
			rt.Rank, rt.OffsetSeconds*1e3, rt.UncertaintySeconds*1e3)
	}
	out := make([]trace.ChromeEvent, 0, len(rt.Spans)+1)
	out = append(out, trace.ChromeEvent{
		Name:     "process_name",
		Category: "__metadata",
		Phase:    "M",
		PID:      pid,
		TID:      0,
		Args:     map[string]any{"name": name},
	})
	offset := time.Duration(rt.OffsetSeconds * float64(time.Second))
	for _, s := range rt.Spans {
		end := s.End
		if end.IsZero() {
			end = s.Start // open span: render as instantaneous
		}
		args := make(map[string]any, len(s.Attrs)+2)
		for _, a := range s.Attrs {
			args[a.Key] = a.Value()
		}
		if s.Parent >= 0 && s.Parent < len(rt.Spans) {
			args["parent"] = rt.Spans[s.Parent].Name
		} else {
			args["clock_offset_seconds"] = rt.OffsetSeconds
			args["clock_uncertainty_seconds"] = rt.UncertaintySeconds
		}
		tid := 0
		if s.Rank >= 0 {
			tid = s.Rank
		}
		localStart := s.Start.Add(-offset)
		out = append(out, trace.ChromeEvent{
			Name:     s.Name,
			Category: "span",
			Phase:    "X",
			TsUs:     float64(localStart.Sub(t0)) / float64(time.Microsecond),
			DurUs:    float64(end.Sub(s.Start)) / float64(time.Microsecond),
			PID:      pid,
			TID:      tid,
			Args:     args,
		})
	}
	return out
}

// WriteChromeTrace writes the merged span+timeline Chrome trace: the
// recorder's spans (relative to its T0) plus, when tl is non-nil, the
// timeline's events, placed on the same clock from tl.Origin (a timeline
// without an Origin, or a nil recorder, counts from the recorder's T0).
// Either input may be nil.
func WriteChromeTrace(w io.Writer, rec *Recorder, tl *trace.Timeline) error {
	return WriteDistributedChromeTrace(w, rec, tl, nil)
}

// WriteDistributedChromeTrace is WriteChromeTrace plus one clock-rebased
// lane per shipped RemoteTrace (see RemoteChromeEvents). All lanes share
// the recorder's T0 as time zero.
func WriteDistributedChromeTrace(w io.Writer, rec *Recorder, tl *trace.Timeline, remotes []RemoteTrace) error {
	t0 := rec.T0()
	events := ChromeEvents(rec.Spans(), t0)
	if tl != nil {
		var offset time.Duration
		if !t0.IsZero() && !tl.Origin.IsZero() {
			offset = tl.Origin.Sub(t0)
		}
		events = append(events, trace.ChromeEvents(tl, ChromePIDTimeline, offset.Seconds())...)
	}
	for _, rt := range remotes {
		events = append(events, RemoteChromeEvents(rt, t0)...)
	}
	return trace.WriteChromeEvents(w, events)
}
