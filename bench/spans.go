package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one harness-side interval: recorded by the benchmark around its
// calls into a layer (or rebuilt from what the public API returns — job
// timestamps, the obs.Recorder handed to core), never from inside the program.
type span struct {
	Name   string
	Op     int // one id per op; spans of one op share it
	Parent int // index into tracer.spans, -1 for an op's root span
	Lane   int // 0 for the caller, 1+rank for engine ranks
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced pass pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// opBase is added to every op id: a workload numbers the ops of each run
	// from 0, and the traced pass makes several runs into one tracer.
	opBase int
}

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name string, op, parent, lane int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name, t.opBase + op, parent, lane, start, end})
	return len(t.spans) - 1
}

// spanName gives the engine's per-cell spans ("dgemm[i,j]") one name, so that
// self times add up over cells.
func spanName(name string) string {
	if strings.HasPrefix(name, "dgemm[") {
		return "dgemm-cell"
	}
	return name
}

// addRecorder copies the engine's own stage spans (bcastA, bcastB, dgemm,
// comm-wait, per-cell dgemm) from an obs.Recorder under the harness span
// parent, keeping their tree.
func (t *tracer) addRecorder(rec *obs.Recorder, op, parent int) {
	if t == nil {
		return
	}
	rs := rec.Spans()
	idx := make([]int, len(rs))
	for i, s := range rs {
		p := parent
		if s.Parent >= 0 && s.Parent < i {
			p = idx[s.Parent]
		}
		if s.Parent < 0 {
			// The recorder's root only exists to hang stages off; the
			// harness span around the call already covers it.
			idx[i] = parent
			continue
		}
		idx[i] = t.add(spanName(s.Name), op, p, 1+s.Rank, s.Start, s.End)
	}
}

// selfTime is one span name's share of an op.
type selfTime struct {
	// Ms is the median over ops of the name's summed self time in the op.
	Ms float64 `json:"ms"`
	// Lanes is on how many lanes at once the name's spans ran (3 for spans
	// every rank records): Ms/Lanes is what one lane spent.
	Lanes int `json:"lanes"`
}

// selfTimes returns every span name's self time per op: a span's duration
// minus the part of its interval its children cover (children may overlap one
// another — the ranks run in parallel — so the union of their intervals is
// what counts), summed over the name's spans in the op, median over ops.
func (t *tracer) selfTimes() map[string]selfTime {
	if t == nil {
		return nil
	}
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	perOp := map[string]map[int]float64{}
	lanes := map[string]map[int]bool{}
	ops := map[int]bool{}
	for i, s := range t.spans {
		self := s.End.Sub(s.Start) - t.covered(s, children[i])
		if perOp[s.Name] == nil {
			perOp[s.Name], lanes[s.Name] = map[int]float64{}, map[int]bool{}
		}
		perOp[s.Name][s.Op] += ms(self)
		lanes[s.Name][s.Lane] = true
		ops[s.Op] = true
	}
	out := make(map[string]selfTime, len(perOp))
	for name, byOp := range perOp {
		vals := make([]float64, 0, len(ops))
		for op := range ops {
			vals = append(vals, byOp[op]) // 0 for an op without this span
		}
		out[name] = selfTime{median(vals), len(lanes[name])}
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to s.
func (t *tracer) covered(s span, kids []int) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := t.spans[k].Start, t.spans[k].End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.After(end) {
			total += v.b.Sub(v.a)
			end = v.b
		} else if v.b.After(end) {
			total += v.b.Sub(end)
			end = v.b
		}
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes every span as a Chrome trace (chrome://tracing,
// ui.perfetto.dev): one lane per caller/rank, the op id and parent span index
// in args.
func (t *tracer) writeChrome(path string) error {
	if len(t.spans) == 0 {
		return nil
	}
	t0 := t.spans[0].Start
	for _, s := range t.spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start.Sub(t0)), Dur: us(s.End.Sub(s.Start)),
			Pid: 1, Tid: s.Lane, Args: map[string]int{"op": s.Op, "span": i, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
