package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// ChromeEvent is one entry of the Chrome trace-event JSON array form
// (loadable in chrome://tracing or Perfetto). It is exported so other
// packages (internal/obs) can merge their own intervals — spans — with a
// timeline's events into a single trace.
type ChromeEvent struct {
	Name     string  `json:"name"`
	Category string  `json:"cat"`
	Phase    string  `json:"ph"`
	TsUs     float64 `json:"ts"`
	DurUs    float64 `json:"dur"`
	PID      int     `json:"pid"`
	TID      int     `json:"tid"`
	Args     any     `json:"args,omitempty"`
}

// ChromeEvents converts the timeline into complete ("X") trace events: one
// thread per rank under the given pid, times in microseconds shifted by
// offsetSec (merged exports use the Origin's distance from their own time
// zero).
func ChromeEvents(t *Timeline, pid int, offsetSec float64) []ChromeEvent {
	events := t.Events()
	out := make([]ChromeEvent, 0, len(events))
	for _, e := range events {
		name := e.Label
		if name == "" {
			name = e.Kind.String()
		}
		var args any
		switch {
		case e.Flops > 0:
			args = map[string]float64{"flops": e.Flops}
		case e.Bytes > 0:
			args = map[string]int{"bytes": e.Bytes}
		}
		out = append(out, ChromeEvent{
			Name:     name,
			Category: e.Kind.String(),
			Phase:    "X", // complete event
			TsUs:     (e.Start + offsetSec) * 1e6,
			DurUs:    e.Duration() * 1e6,
			PID:      pid,
			TID:      e.Rank,
			Args:     args,
		})
	}
	return out
}

// WriteChromeEvents serializes events as the Chrome trace JSON array.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	if events == nil {
		events = []ChromeEvent{} // encode as [], not null
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(events); err != nil {
		return fmt.Errorf("trace: encoding chrome trace: %w", err)
	}
	return nil
}

// WriteChromeTrace exports the timeline in the Chrome trace-event format.
// Each rank appears as one thread; times are microseconds.
func WriteChromeTrace(w io.Writer, t *Timeline) error {
	return WriteChromeEvents(w, ChromeEvents(t, 0, 0))
}
