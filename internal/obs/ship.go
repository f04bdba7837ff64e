package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// Span shipping: at the end of a multi-process run (summagen -hosts) every
// remote rank serializes its Recorder into a compact blob and ships it to
// rank 0 (the transport is internal/netmpi's reserved span frame), where
// each blob is decoded into a RemoteTrace and merged into one clock-aligned
// Chrome export. The wire form is JSON with single-letter keys and
// nanosecond offsets from the recorder's T0 — self-describing enough to
// survive version skew between ranks, small enough that a rank's trace is
// a few KB.

// shipVersion is the wire version; decoders reject anything newer.
const shipVersion = 1

// RemoteTrace is one rank's recorded span tree plus the clock alignment
// needed to merge it into the local timeline. Offset follows the netmpi
// convention: remote clock − local clock, so a remote timestamp t maps to
// t − Offset on the local clock. Zero samples (shared clock, loopback, or
// no completed heartbeat exchange) leave both alignment fields zero.
type RemoteTrace struct {
	Rank  int
	T0    time.Time
	Spans []Span
	// OffsetSeconds is the estimated remote−local clock offset applied
	// when rebasing; UncertaintySeconds bounds its error (± seconds).
	OffsetSeconds      float64
	UncertaintySeconds float64
}

type wireAttr struct {
	K string   `json:"k"`
	T AttrKind `json:"t"`
	I int64    `json:"i,omitempty"`
	F float64  `json:"f,omitempty"`
	S string   `json:"s,omitempty"`
}

type wireSpan struct {
	Name    string     `json:"n"`
	Rank    int        `json:"r"`
	Parent  int        `json:"p"`
	StartNs int64      `json:"s"`
	EndNs   int64      `json:"e,omitempty"` // 0 while the span is open
	Attrs   []wireAttr `json:"a,omitempty"`
}

type wireRankTrace struct {
	V        int        `json:"v"`
	Rank     int        `json:"rank"`
	T0UnixNs int64      `json:"t0"`
	Spans    []wireSpan `json:"spans"`
}

// EncodeRankTrace serializes a rank's recorder for shipping. A nil
// recorder encodes as an empty trace — the receiver still learns the rank
// reported in, just with nothing to show.
func EncodeRankTrace(rank int, rec *Recorder) []byte {
	spans := rec.Spans()
	t0 := rec.T0()
	wt := wireRankTrace{V: shipVersion, Rank: rank, T0UnixNs: t0.UnixNano(), Spans: make([]wireSpan, 0, len(spans))}
	for _, s := range spans {
		w := wireSpan{
			Name:    s.Name,
			Rank:    s.Rank,
			Parent:  s.Parent,
			StartNs: s.Start.Sub(t0).Nanoseconds(),
		}
		if !s.End.IsZero() {
			w.EndNs = s.End.Sub(t0).Nanoseconds()
		}
		for _, a := range s.Attrs {
			w.Attrs = append(w.Attrs, wireAttr{K: a.Key, T: a.Kind, I: a.Int, F: a.Float, S: a.Str})
		}
		wt.Spans = append(wt.Spans, w)
	}
	b, err := json.Marshal(wt)
	if err != nil {
		// Marshalling plain structs of strings and numbers cannot fail;
		// if it somehow does, ship the empty trace rather than panic a rank.
		b, _ = json.Marshal(wireRankTrace{V: shipVersion, Rank: rank, T0UnixNs: t0.UnixNano()})
	}
	return b
}

// DecodeRankTrace parses a shipped blob back into a RemoteTrace. The
// alignment fields are left zero — clock offsets are a property of the
// receiving link, so the caller annotates them from its own transport
// stats. Parent links are validated: a span may only point at an earlier
// span (recorders append in start order), so a corrupt blob cannot smuggle
// a cycle into the merge.
func DecodeRankTrace(b []byte) (RemoteTrace, error) {
	var wt wireRankTrace
	if err := json.Unmarshal(b, &wt); err != nil {
		return RemoteTrace{}, fmt.Errorf("obs: decoding rank trace: %w", err)
	}
	if wt.V > shipVersion {
		return RemoteTrace{}, fmt.Errorf("obs: rank trace version %d is newer than supported %d", wt.V, shipVersion)
	}
	t0 := time.Unix(0, wt.T0UnixNs)
	rt := RemoteTrace{Rank: wt.Rank, T0: t0, Spans: make([]Span, 0, len(wt.Spans))}
	for i, w := range wt.Spans {
		if w.Parent < -1 || w.Parent >= i {
			return RemoteTrace{}, fmt.Errorf("obs: rank trace span %d has parent %d out of range", i, w.Parent)
		}
		s := Span{
			Name:   w.Name,
			Rank:   w.Rank,
			Parent: w.Parent,
			Start:  t0.Add(time.Duration(w.StartNs)),
		}
		if w.EndNs != 0 {
			s.End = t0.Add(time.Duration(w.EndNs))
		}
		for _, a := range w.Attrs {
			s.Attrs = append(s.Attrs, Attr{Key: a.K, Kind: a.T, Int: a.I, Float: a.F, Str: a.S})
		}
		rt.Spans = append(rt.Spans, s)
	}
	return rt, nil
}
