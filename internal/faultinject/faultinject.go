// Package faultinject provides deterministic, seed-driven network fault
// injection for chaos-testing message-passing runtimes. An Injector wraps
// net.Conns and applies rules keyed to the Nth written frame — drop
// (blackhole), delay, or close the connection — so a "rank killed
// mid-collective" or "link goes silent" scenario reproduces exactly from
// a seed, with no sleeps or goroutine races in the test.
//
// Frame counting is writer-side: each Write call is one frame, matching
// the netmpi framing where every frame is written in a single call.
// Timer-driven frames (heartbeats) can be excluded from counting via
// Plan.SkipCount so that rule trigger points stay deterministic, while
// active rules (Drop in particular) still apply to them.
package faultinject

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Action is what a rule does when it triggers.
type Action int

const (
	// Drop silently discards every write from the trigger frame on: the
	// connection stays open but goes one-way silent, the "hung peer"
	// scenario a heartbeat failure detector must catch.
	Drop Action = iota
	// Delay sleeps for Rule.Delay before each write from the trigger
	// frame on, simulating a straggler link.
	Delay
	// Close closes the underlying connection at the trigger frame,
	// before the write reaches the wire: the peer sees EOF, the writer
	// sees an error with zero bytes written (safe to retry).
	Close
	// Corrupt flips Rule.FlipBits bits (seed-deterministic positions at
	// offsets >= Rule.PayloadOffset) in each counted frame from the
	// trigger on, on a copy of the buffer — the caller's data is never
	// mutated. The frame reaches the wire framing-intact but
	// checksum-dead: the scenario a CRC-checked transport must catch and
	// heal.
	Corrupt
	// SlowLink models a bandwidth-degraded link as a transit queue:
	// writes enqueue immediately (a kernel socket buffer never blocks a
	// 60-byte control frame) and a drain goroutine delivers them, in
	// order, paced to Rule.Rate bytes/sec with seed-deterministic extra
	// jitter up to Rule.Jitter per frame. Write deadlines are swallowed —
	// on a real slow link the write syscall still returns instantly; the
	// latency lives in transit. Small frames (heartbeats) queue behind
	// bulk, so their round trip inflates by the queue debt — exactly the
	// up-but-sick signal a gray-failure detector feeds on and a fail-stop
	// detector never sees. Active for the connection's whole life
	// (AfterFrames is ignored).
	SlowLink
	// Partition severs the matching direction: from the trigger frame
	// until Rule.Heal has elapsed since the first triggered write, every
	// write closes the connection and fails (wrapping net.ErrClosed), on
	// every connection the injector wraps, until the network heals; Heal == 0
	// never heals. Modeled as connection death rather than silent frame
	// loss because TCP never loses frames on a live connection — a cut
	// either stalls the stream (SlowLink/Drop territory) or kills it.
	Partition
)

func (a Action) String() string {
	switch a {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Close:
		return "close"
	case Corrupt:
		return "corrupt"
	case SlowLink:
		return "slowlink"
	case Partition:
		return "partition"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Rule triggers an action on matching connections.
type Rule struct {
	// Rank restricts the rule to connections owned by this endpoint
	// rank; -1 matches any rank.
	Rank int
	// Peer restricts the rule to the connection toward this peer rank;
	// -1 matches any peer.
	Peer int
	// AfterFrames is the 1-based index of the counted frame at which the
	// rule triggers. Drop and Delay stay active from that frame on;
	// Close fires at that frame.
	AfterFrames int
	// Action is what happens at the trigger point.
	Action Action
	// Delay is the per-write delay for Action == Delay.
	Delay time.Duration
	// MaxFires, when positive, limits how many times the rule acts
	// across all connections — e.g. 1 makes a Close a single event on one
	// connection. Zero means unlimited.
	MaxFires int
	// FlipBits is how many bits Corrupt flips per frame (default 1).
	FlipBits int
	// PayloadOffset keeps Corrupt's flips at byte offsets >= this value
	// (clamped to the frame) — e.g. 16 spares the netmpi header so the
	// receiver's stream framing survives while the checksum dies.
	PayloadOffset int
	// Seed derives Corrupt's flip positions and SlowLink's jitter; rules
	// with equal seeds reproduce exactly.
	Seed int64
	// Rate is SlowLink's bandwidth cap in bytes/sec (required for
	// SlowLink).
	Rate int64
	// Jitter bounds SlowLink's extra per-write delay (0 = none).
	Jitter time.Duration
	// Heal is how long a Partition stays black after its first triggered
	// write; 0 means it never heals.
	Heal time.Duration
}

// Plan is a set of rules plus counting configuration.
type Plan struct {
	Rules []Rule
	// SkipCount, when non-nil, exempts frames for which it returns true
	// from frame counting (they are still subject to active Drop/Delay
	// rules). Pass netmpi.IsHeartbeatFrame to keep timer-driven beats
	// from perturbing deterministic trigger points.
	SkipCount func(frame []byte) bool
}

// RandomKillPlan derives, deterministically from seed, a plan that kills
// one of `ranks` ranks by closing all of its connections at a
// frame index in [1, maxFrame]. It returns the plan and the victim rank.
func RandomKillPlan(seed int64, ranks, maxFrame int) (Plan, int) {
	rng := rand.New(rand.NewSource(seed))
	victim := rng.Intn(ranks)
	frame := 1 + rng.Intn(maxFrame)
	return Plan{Rules: []Rule{{
		Rank:        victim,
		Peer:        -1,
		AfterFrames: frame,
		Action:      Close,
	}}}, victim
}

// Injector applies a Plan to wrapped connections.
type Injector struct {
	plan Plan

	mu        sync.Mutex
	fires     []int       // per-rule global fire counts
	partStart []time.Time // per-rule first-trigger instant (Partition heal clock)
}

// New builds an Injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{
		plan:      plan,
		fires:     make([]int, len(plan.Rules)),
		partStart: make([]time.Time, len(plan.Rules)),
	}
}

// Fires returns how many times rule i has acted.
func (in *Injector) Fires(i int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fires[i]
}

// WrapConn returns a hook compatible with netmpi.Config.WrapConn for the
// endpoint with the given rank: it wraps each peer connection with the
// rules that match (rank, peer). Connections with no matching rules are
// returned untouched.
func (in *Injector) WrapConn(rank int) func(peer int, c net.Conn) net.Conn {
	return func(peer int, c net.Conn) net.Conn {
		var idx []int
		for i, r := range in.plan.Rules {
			if (r.Rank == -1 || r.Rank == rank) && (r.Peer == -1 || r.Peer == peer) {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			return c
		}
		// A matching SlowLink rule layers the transit queue between the
		// rule-applying wrapper and the wire: rule actions (corruption,
		// counting) happen at enqueue time, pacing in the drain.
		for _, i := range idx {
			if in.plan.Rules[i].Action == SlowLink {
				c = newSlowConn(c, in.plan.Rules[i])
				break
			}
		}
		return &conn{Conn: c, in: in, rules: idx}
	}
}

// conn counts written frames and applies matching rules.
type conn struct {
	net.Conn
	in    *Injector
	rules []int

	mu     sync.Mutex
	frames int
}

func (fc *conn) Write(b []byte) (int, error) {
	in := fc.in
	counted := in.plan.SkipCount == nil || !in.plan.SkipCount(b)
	fc.mu.Lock()
	if counted {
		fc.frames++
	}
	n := fc.frames
	fc.mu.Unlock()

	buf := b
	for _, i := range fc.rules {
		r := in.plan.Rules[i]
		if r.Action == SlowLink {
			// Pacing lives in the layered transit queue (see WrapConn).
			continue
		}
		triggered := false
		switch r.Action {
		case Close, Corrupt:
			// Exact-frame semantics need counted frames only: a
			// timer-driven heartbeat must not consume a trigger point.
			// Corrupt stays active from the trigger on (MaxFires bounds it).
			if r.Action == Close {
				triggered = counted && n == r.AfterFrames
			} else {
				triggered = counted && n >= r.AfterFrames
			}
		case Partition:
			// Frame counters are per-connection, but a partition window is
			// injector-global: once it is open, another connection's first
			// writes (n < AfterFrames on that conn) must still hit the
			// heal check, or every connection the injector wraps later
			// would leak its early frames through a supposedly black link.
			in.mu.Lock()
			open := !in.partStart[i].IsZero()
			in.mu.Unlock()
			triggered = open || n >= r.AfterFrames
		default:
			triggered = n >= r.AfterFrames
		}
		if !triggered {
			continue
		}
		if r.Action == Partition {
			// A partition is one event with a duration, not a per-write
			// fire: the first triggered write starts the heal clock (and
			// counts as the rule's single fire); every write until Heal
			// elapses — on this connection or any other the same
			// injector wraps — severs the link, heartbeats included.
			in.mu.Lock()
			if in.partStart[i].IsZero() {
				in.partStart[i] = time.Now()
				in.fires[i]++
			}
			healed := r.Heal > 0 && time.Since(in.partStart[i]) >= r.Heal
			in.mu.Unlock()
			if !healed {
				fc.Conn.Close()
				return 0, fmt.Errorf("faultinject: partitioned at frame %d: %w", n, net.ErrClosed)
			}
			continue
		}
		in.mu.Lock()
		if r.MaxFires > 0 && in.fires[i] >= r.MaxFires {
			in.mu.Unlock()
			continue
		}
		in.fires[i]++
		in.mu.Unlock()
		switch r.Action {
		case Drop:
			return len(b), nil
		case Delay:
			time.Sleep(r.Delay)
		case Close:
			// Wrap net.ErrClosed so a runtime can tell (errors.Is) a
			// closed connection from other write errors.
			fc.Conn.Close()
			return 0, fmt.Errorf("faultinject: connection closed at frame %d: %w", n, net.ErrClosed)
		case Corrupt:
			buf = corruptCopy(buf, r, n)
		}
	}
	return fc.Conn.Write(buf)
}

// corruptCopy returns a copy of frame with the rule's bit flips applied.
// Positions derive from (Seed, frame index) alone, so a run reproduces its
// flips exactly; the caller's buffer is never mutated (a Write must leave
// what its caller passed in as it was).
func corruptCopy(frame []byte, r Rule, n int) []byte {
	nb := append([]byte(nil), frame...)
	flips := r.FlipBits
	if flips <= 0 {
		flips = 1
	}
	off := r.PayloadOffset
	if off >= len(nb) || off < 0 {
		off = 0
	}
	rng := rand.New(rand.NewSource(r.Seed ^ int64(n)*0x9E3779B9))
	for k := 0; k < flips; k++ {
		pos := off + rng.Intn(len(nb)-off)
		nb[pos] ^= byte(1) << uint(rng.Intn(8))
	}
	return nb
}
