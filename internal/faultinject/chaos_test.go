package faultinject

import (
	"bytes"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// readFrame reads exactly n bytes and returns them (Errorf on failure, safe
// from goroutines).
func readBytes(t *testing.T, c net.Conn, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	total := 0
	for total < n {
		k, err := c.Read(buf[total:])
		if err != nil {
			t.Errorf("read: %v", err)
			return nil
		}
		total += k
	}
	return buf
}

func TestCorruptFlipsDeterministically(t *testing.T) {
	frame := bytes.Repeat([]byte{0x55}, 64)
	rule := Rule{Rank: -1, Peer: -1, AfterFrames: 1, Action: Corrupt, Seed: 42, FlipBits: 3, PayloadOffset: 16}

	run := func() []byte {
		in := New(Plan{Rules: []Rule{rule}})
		w, r := pipePair(t, in, 0, 1)
		var got []byte
		done := make(chan struct{})
		go func() { got = readBytes(t, r, len(frame)); close(done) }()
		if _, err := w.Write(frame); err != nil {
			t.Fatal(err)
		}
		<-done
		return got
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed must flip the same bits")
	}
	if bytes.Equal(a, frame) {
		t.Fatal("corrupt frame arrived unchanged")
	}
	// Flips respect the payload offset: header bytes are untouched.
	if !bytes.Equal(a[:16], frame[:16]) {
		t.Fatal("flip landed below PayloadOffset")
	}
	// The writer's buffer is never mutated.
	if !bytes.Equal(frame, bytes.Repeat([]byte{0x55}, 64)) {
		t.Fatal("caller's buffer was mutated")
	}
}

func TestCorruptMaxFires(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Rank: -1, Peer: -1, AfterFrames: 1, Action: Corrupt, MaxFires: 1}}})
	w, r := pipePair(t, in, 0, 1)
	frame := bytes.Repeat([]byte{0xAA}, 32)
	var first, second []byte
	done := make(chan struct{})
	go func() {
		first = readBytes(t, r, len(frame))
		second = readBytes(t, r, len(frame))
		close(done)
	}()
	w.Write(frame)
	w.Write(frame)
	<-done
	if bytes.Equal(first, frame) {
		t.Fatal("first frame should be corrupted")
	}
	if !bytes.Equal(second, frame) {
		t.Fatal("second frame should pass clean after MaxFires")
	}
}

func TestSlowLinkPacesWrites(t *testing.T) {
	// 1 KiB/s cap: 256 bytes should take ~250ms across the token bucket.
	in := New(Plan{Rules: []Rule{{Rank: -1, Peer: -1, AfterFrames: 1, Action: SlowLink, Rate: 1024}}})
	w, r := pipePair(t, in, 0, 1)
	done := make(chan struct{})
	go func() { readBytes(t, r, 256); close(done) }()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := w.Write(bytes.Repeat([]byte{1}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("256 bytes at 1KiB/s took %v, want >= 150ms", d)
	}
}

func TestPartitionHeals(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Rank: -1, Peer: -1, AfterFrames: 1, Action: Partition, Heal: 120 * time.Millisecond}}})
	w, _ := pipePair(t, in, 0, 1)

	// During the partition every write severs the connection: the writer
	// gets a retryable error (net.ErrClosed in the chain), never a silent
	// success for a frame that will not arrive.
	if _, err := w.Write([]byte("aaaa")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write during partition = %v, want net.ErrClosed in chain", err)
	}
	if _, err := w.Write([]byte("aaaa")); err == nil {
		t.Fatal("second write during partition must fail too")
	}
	if in.Fires(0) != 1 {
		t.Fatalf("partition fires = %d, want 1 (one event, not per write)", in.Fires(0))
	}

	// After Heal elapses a fresh conn wrapped by the same injector (the
	// heal clock is global to the rule) passes traffic.
	time.Sleep(130 * time.Millisecond)
	w2, r2 := pipePair(t, in, 0, 1)
	go readOK(t, r2, 4)
	if _, err := w2.Write([]byte("bbbb")); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionIsDirectional(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Rank: 0, Peer: 1, AfterFrames: 1, Action: Partition}}})
	// The reverse direction (rank 1 toward peer 0) is untouched.
	a, _ := net.Pipe()
	defer a.Close()
	if got := in.WrapConn(1)(0, a); got != a {
		t.Fatal("asymmetric partition must leave the reverse direction unwrapped")
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("partition:rank=2,heal=300ms; corrupt:rank=0,peer=1,after=3,fires=1,flips=2,offset=16,seed=7; slowlink:rate=512k,jitter=5ms; kill:after=4; drop:peer=3; delay:delay=10ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rules) != 6 {
		t.Fatalf("parsed %d rules, want 6", len(plan.Rules))
	}
	want := []Rule{
		{Rank: 2, Peer: -1, AfterFrames: 1, Action: Partition, Heal: 300 * time.Millisecond},
		{Rank: 0, Peer: 1, AfterFrames: 3, Action: Corrupt, MaxFires: 1, FlipBits: 2, PayloadOffset: 16, Seed: 7},
		{Rank: -1, Peer: -1, AfterFrames: 1, Action: SlowLink, Rate: 512 << 10, Jitter: 5 * time.Millisecond},
		{Rank: -1, Peer: -1, AfterFrames: 4, Action: Close},
		{Rank: -1, Peer: 3, AfterFrames: 1, Action: Drop},
		{Rank: -1, Peer: -1, AfterFrames: 1, Action: Delay, Delay: 10 * time.Millisecond},
	}
	for i, w := range want {
		if plan.Rules[i] != w {
			t.Errorf("rule %d = %+v, want %+v", i, plan.Rules[i], w)
		}
	}
}

func TestParsePlanRejects(t *testing.T) {
	for _, bad := range []string{
		"explode:rank=1",        // unknown kind
		"corrupt:rank",          // not key=val
		"corrupt:volume=11",     // unknown key
		"corrupt:after=x",       // bad int
		"slowlink:jitter=5ms",   // slowlink without rate
		"delay:rank=1",          // delay without duration
		"corrupt:after=0",       // trigger below 1
		"partition:heal=potato", // bad duration
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestParsePlanRateOverflow: a rate whose suffix product leaves int64 is
// rejected with an error naming the rule, never wrapped to a small rate
// (17592186044417m is 2⁴⁴+1 MiB/s, which wraps to 1 MiB/s).
func TestParsePlanRateOverflow(t *testing.T) {
	for _, tc := range []struct {
		spec string
		rate int64 // 0: must be rejected
	}{
		{spec: "slowlink:rate=17592186044417m"},
		{spec: "slowlink:rate=8796093022208m"}, // 2⁴³ MiB/s = 2⁶³
		{spec: "slowlink:rate=9007199254740992k"},
		{spec: "corrupt:rate=-17592186044417m"},
		{spec: "slowlink:rate=8796093022207m", rate: (1<<43 - 1) << 20},
		{spec: "slowlink:rate=9007199254740991k", rate: (1<<53 - 1) << 10},
		{spec: "slowlink:rate=9223372036854775807", rate: math.MaxInt64},
	} {
		plan, err := ParsePlan(tc.spec)
		switch {
		case tc.rate == 0 && err == nil:
			t.Errorf("ParsePlan(%q) accepted rate %d", tc.spec, plan.Rules[0].Rate)
		case tc.rate == 0 && !strings.Contains(err.Error(), tc.spec):
			t.Errorf("ParsePlan(%q) error %q does not name the rule", tc.spec, err)
		case tc.rate != 0 && (err != nil || plan.Rules[0].Rate != tc.rate):
			t.Errorf("ParsePlan(%q) = %+v, %v; want rate %d", tc.spec, plan, err, tc.rate)
		}
	}
}

// FuzzParsePlan: ParsePlan never panics, and every rule it accepts holds
// finishRule's invariants.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"partition:rank=2,heal=300ms;corrupt:rank=0,peer=1,after=3,fires=1",
		"corrupt:rank=0,after=2,fires=1;slowlink:rank=1,rate=256k",
		"corrupt:rank=1,after=3,flips=2;partition:rank=2,after=2,heal=300ms",
		"kill:rank=1,after=1",
		"slowlink:rate=512k,jitter=5ms; kill:after=4; drop:peer=3; delay:delay=10ms",
		"slowlink:rate=17592186044417m",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		plan, err := ParsePlan(s)
		if err != nil {
			return
		}
		for _, r := range plan.Rules {
			if r.AfterFrames < 1 ||
				(r.Action == Delay && r.Delay <= 0) ||
				(r.Action == SlowLink && r.Rate <= 0) {
				t.Fatalf("ParsePlan(%q) accepted %+v", s, r)
			}
		}
	})
}

func TestParsePlanEmpty(t *testing.T) {
	plan, err := ParsePlan("  ")
	if err != nil || len(plan.Rules) != 0 {
		t.Fatalf("empty plan: %v rules=%d", err, len(plan.Rules))
	}
}
