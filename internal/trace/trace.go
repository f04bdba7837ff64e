// Package trace records per-rank execution timelines for the simulated and
// real runs of SummaGen. The paper reports parallel execution time together
// with the computation and communication times of each abstract processor
// (Figures 6b/6c and 7b/7c are the per-shape maxima of these); the trace is
// the raw material for those breakdowns.
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a timeline event.
type Kind int

const (
	// Compute covers local DGEMM time.
	Compute Kind = iota
	// Comm covers MPI-level communications (the paper's "communication
	// time": broadcasts between abstract processors).
	Comm
	// Idle covers time spent blocked waiting for peers.
	Idle
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one interval on a rank's timeline. Times are seconds on that
// rank's clock (virtual or real depending on the engine).
type Event struct {
	Rank  int
	Kind  Kind
	Start float64
	End   float64
	// Bytes is the payload size for Comm events.
	Bytes int
	// Flops is the work for Compute events.
	Flops float64
	// Label is a free-form tag, e.g. "bcastA[1,2]".
	Label string
}

// Duration returns End-Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// Timeline collects events from concurrently running ranks.
type Timeline struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty timeline.
func New() *Timeline { return &Timeline{} }

// NewCap returns an empty timeline with room for n events, so that a
// recorder that knows its event count up front never grows it.
func NewCap(n int) *Timeline { return &Timeline{events: make([]Event, 0, n)} }

// Add appends an event; safe for concurrent use.
func (t *Timeline) Add(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of all recorded events sorted by (rank, start).
func (t *Timeline) Events() []Event {
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Breakdown is the per-rank aggregate the experiment harness consumes.
// The JSON tags define the wire form shared by the CLI tools and the
// serving API (see core.Report).
type Breakdown struct {
	Rank        int     `json:"rank"`
	ComputeTime float64 `json:"compute_time_s"`
	CommTime    float64 `json:"comm_time_s"`
	IdleTime    float64 `json:"idle_time_s"`
	BytesMoved  int     `json:"bytes_moved"`
	Flops       float64 `json:"flops"`
	// Finish is the latest event end seen on this rank.
	Finish float64 `json:"finish_s"`
}

// Total returns the sum of all classified time on the rank.
func (b Breakdown) Total() float64 {
	return b.ComputeTime + b.CommTime + b.IdleTime
}

// Summarize aggregates the timeline into one Breakdown per rank that
// recorded events, ordered by rank. Events are summed in the order each rank
// recorded them, which is the order of their start times on one rank's clock.
func (t *Timeline) Summarize() []Breakdown {
	t.mu.Lock()
	defer t.mu.Unlock()
	ranks := 0
	for _, e := range t.events {
		ranks = max(ranks, e.Rank+1)
	}
	out := make([]Breakdown, ranks)
	for r := range out {
		out[r].Rank = -1 // no events yet
	}
	for _, e := range t.events {
		b := &out[e.Rank]
		b.Rank = e.Rank
		d := e.Duration()
		switch e.Kind {
		case Compute:
			b.ComputeTime += d
			b.Flops += e.Flops
		case Comm:
			b.CommTime += d
			b.BytesMoved += e.Bytes
		case Idle:
			b.IdleTime += d
		}
		if e.End > b.Finish {
			b.Finish = e.End
		}
	}
	return slices.DeleteFunc(out, func(b Breakdown) bool { return b.Rank < 0 })
}

// MaxOver returns the maximum over ranks of the value extracted by f; this
// is how the paper reports computation and communication times ("the
// maximums of the computation and communication times of the abstract
// processors").
func MaxOver(bs []Breakdown, f func(Breakdown) float64) float64 {
	var m float64
	for i, b := range bs {
		v := f(b)
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Render produces a human-readable table of the per-rank breakdowns.
func Render(bs []Breakdown) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %12s %12s %12s %14s\n",
		"rank", "compute(s)", "comm(s)", "idle(s)", "bytes")
	for _, b := range bs {
		fmt.Fprintf(&sb, "%-5d %12.6f %12.6f %12.6f %14d\n",
			b.Rank, b.ComputeTime, b.CommTime, b.IdleTime, b.BytesMoved)
	}
	return sb.String()
}
