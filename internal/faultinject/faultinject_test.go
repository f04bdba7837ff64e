package faultinject

import (
	"net"
	"testing"
	"time"
)

// pipePair returns a wrapped writer side and the raw reader side.
func pipePair(t *testing.T, in *Injector, rank, peer int) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return in.WrapConn(rank)(peer, a), b
}

// readOK reads exactly n bytes or flags the test failed (Errorf, so it is
// safe to call from helper goroutines).
func readOK(t *testing.T, c net.Conn, n int) {
	t.Helper()
	buf := make([]byte, n)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	total := 0
	for total < n {
		k, err := c.Read(buf[total:])
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		total += k
	}
}

func TestRuleMatching(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Rank: 1, Peer: 2, AfterFrames: 1, Action: Drop}}})
	a, _ := net.Pipe()
	defer a.Close()
	if got := in.WrapConn(0)(2, a); got != a {
		t.Fatal("rule for rank 1 must not wrap rank 0's conns")
	}
	if got := in.WrapConn(1)(0, a); got != a {
		t.Fatal("rule for peer 2 must not wrap the conn to peer 0")
	}
	if got := in.WrapConn(1)(2, a); got == a {
		t.Fatal("matching conn must be wrapped")
	}
}

func TestDropFromNthFrame(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Rank: -1, Peer: -1, AfterFrames: 2, Action: Drop}}})
	w, r := pipePair(t, in, 0, 1)
	go func() {
		w.Write([]byte("aaaa")) // frame 1: passes
		w.Write([]byte("bbbb")) // frame 2: dropped
		w.Write([]byte("cccc")) // frame 3: dropped
	}()
	readOK(t, r, 4)
	buf := make([]byte, 4)
	r.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := r.Read(buf); err == nil {
		t.Fatal("frames past the trigger must be dropped")
	}
	if in.Fires(0) != 2 {
		t.Fatalf("fires = %d, want 2", in.Fires(0))
	}
}

func TestCloseAtNthFrameOnce(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Rank: -1, Peer: -1, AfterFrames: 2, Action: Close, MaxFires: 1}}})
	w, r := pipePair(t, in, 0, 1)
	go readOK(t, r, 4)
	if _, err := w.Write([]byte("aaaa")); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	n, err := w.Write([]byte("bbbb"))
	if err == nil || n != 0 {
		t.Fatalf("frame 2 must fail with 0 bytes written, got n=%d err=%v", n, err)
	}
	// The rule is exhausted: a freshly wrapped conn passes.
	w2, r2 := pipePair(t, in, 0, 1)
	go readOK(t, r2, 8)
	for i := 0; i < 2; i++ {
		if _, err := w2.Write([]byte("cccc")); err != nil {
			t.Fatalf("post-exhaustion frame %d: %v", i+1, err)
		}
	}
}

func TestDelay(t *testing.T) {
	in := New(Plan{Rules: []Rule{{Rank: -1, Peer: -1, AfterFrames: 1, Action: Delay, Delay: 50 * time.Millisecond}}})
	w, r := pipePair(t, in, 0, 1)
	done := make(chan struct{})
	go func() { readOK(t, r, 4); close(done) }()
	start := time.Now()
	if _, err := w.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	<-done
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("write completed in %v, want >= 50ms", d)
	}
}

func TestSkipCountExemptsFramesButDropsApply(t *testing.T) {
	beat := []byte("BEAT")
	isBeat := func(b []byte) bool { return string(b) == "BEAT" }
	in := New(Plan{
		Rules:     []Rule{{Rank: -1, Peer: -1, AfterFrames: 2, Action: Drop}},
		SkipCount: isBeat,
	})
	w, r := pipePair(t, in, 0, 1)
	go func() {
		w.Write(beat)           // not counted, n=0 < 2: passes
		w.Write([]byte("aaaa")) // frame 1: passes
		w.Write([]byte("bbbb")) // frame 2: dropped
		w.Write(beat)           // not counted, but n=2 >= 2: dropped
	}()
	readOK(t, r, 8) // beat + aaaa
	buf := make([]byte, 4)
	r.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := r.Read(buf); err == nil {
		t.Fatal("frame 2 and the second beat must be dropped")
	}
}

func TestRandomKillPlanDeterministic(t *testing.T) {
	p1, v1 := RandomKillPlan(7, 3, 5)
	p2, v2 := RandomKillPlan(7, 3, 5)
	if v1 != v2 || p1.Rules[0] != p2.Rules[0] {
		t.Fatal("same seed must give the same plan")
	}
	if v1 < 0 || v1 >= 3 {
		t.Fatalf("victim %d out of range", v1)
	}
	if f := p1.Rules[0].AfterFrames; f < 1 || f > 5 {
		t.Fatalf("frame %d out of range", f)
	}
	seen := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		_, v := RandomKillPlan(seed, 3, 5)
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("20 seeds hit %d of 3 victims", len(seen))
	}
}
