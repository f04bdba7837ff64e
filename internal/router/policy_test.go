package router

import (
	"fmt"
	"testing"
)

// fakeBackends builds bare backends (no transport): Pick reads only IDs
// and the probe state tests set on them.
func fakeBackends(ids ...string) []*Backend {
	var bs []*Backend
	for _, id := range ids {
		bs = append(bs, &Backend{ID: id})
	}
	return bs
}

func TestParsePolicy(t *testing.T) {
	for _, name := range []string{"affinity", "plan-affinity"} {
		if _, err := ParsePolicy(name); err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
	}
	for _, name := range []string{"round-robin", "least-loaded", "random"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Fatalf("ParsePolicy accepted %q", name)
		}
	}
}

// ownerAndOther returns the rendezvous owner of key among bs and the other
// backend of a two-backend set.
func ownerAndOther(t *testing.T, key string, bs []*Backend) (owner, other *Backend) {
	t.Helper()
	owner = Policy{}.Pick(key, bs)
	if owner == bs[0] {
		return owner, bs[1]
	}
	return owner, bs[0]
}

// TestPickBoundedLoadSpillsOwner: an owner one job ahead of an idle
// instance keeps its key (1+1 ≤ ⌈1.25·2/2⌉ = 2); two ahead, it spills
// (2+1 > ⌈1.25·3/2⌉ = 2).
func TestPickBoundedLoadSpillsOwner(t *testing.T) {
	bs := fakeBackends("i0", "i1")
	owner, other := ownerAndOther(t, "k", bs)
	owner.load.InFlight = 1
	if got := (Policy{}).Pick("k", bs); got != owner {
		t.Fatalf("owner %s at load 1 beside an idle instance lost its key to %s", owner.ID, got.ID)
	}
	owner.load.QueueDepth = 1
	if got := (Policy{}).Pick("k", bs); got != other {
		t.Fatalf("owner %s at load 2 beside an idle instance kept its key", owner.ID)
	}
}

// TestPickUniformLoadKeepsOwner: equal load never moves a key.
func TestPickUniformLoadKeepsOwner(t *testing.T) {
	bs := fakeBackends("i0", "i1", "i2")
	for _, load := range []int{1, 5, 40} {
		for i := 0; i < 30; i++ {
			key := fmt.Sprintf("plan-key-%d", i)
			for _, b := range bs {
				b.load.QueueDepth = 0
			}
			owner := Policy{}.Pick(key, bs)
			for _, b := range bs {
				b.load.QueueDepth = load
			}
			if got := (Policy{}).Pick(key, bs); got != owner {
				t.Fatalf("key %q moved %s -> %s under uniform load %d", key, owner.ID, got.ID, load)
			}
		}
	}
}

// TestPickHealthClassSickLosesToClean: a suspect, gray-hot or SLO-burning
// owner loses its key to a clean instance, even one ten jobs busier.
func TestPickHealthClassSickLosesToClean(t *testing.T) {
	for name, sicken := range map[string]func(b *Backend){
		"suspect":    func(b *Backend) { b.suspect = true },
		"gray-hot":   func(b *Backend) { b.grayHot = 1 },
		"slo-firing": func(b *Backend) { b.load.SLOFiring = 1 },
	} {
		bs := fakeBackends("i0", "i1")
		owner, other := ownerAndOther(t, "k", bs)
		sicken(owner)
		other.load.QueueDepth = 10
		if got := (Policy{}).Pick("k", bs); got != other {
			t.Fatalf("%s owner %s kept its key over clean %s", name, owner.ID, other.ID)
		}
	}
}

// TestPickHealthClassSuspectBeatsDraining: a sick instance still beats a
// draining one, and an all-draining fleet still places the job.
func TestPickHealthClassSuspectBeatsDraining(t *testing.T) {
	bs := fakeBackends("i0", "i1")
	bs[0].suspect = true
	bs[0].load.QueueDepth = 5
	bs[1].load.Draining = true
	if got := (Policy{}).Pick("k", bs); got != bs[0] {
		t.Fatalf("picked draining %s over suspect i0", got.ID)
	}
	bs[0].load.Draining = true
	if got := (Policy{}).Pick("k", bs); got == nil {
		t.Fatal("all-draining fleet got no instance")
	}
}

func TestPickEmpty(t *testing.T) {
	if got := (Policy{}).Pick("k", nil); got != nil {
		t.Fatalf("Pick on an empty set = %s, want nil", got.ID)
	}
}

func TestPickAllocatesNothing(t *testing.T) {
	bs := fakeBackends("i0", "i1", "i2")
	bs[1].suspect = true
	bs[2].load.InFlight = 3
	if n := testing.AllocsPerRun(100, func() { Policy{}.Pick("n=48|shape=auto|fpm=false|speeds=", bs) }); n != 0 {
		t.Fatalf("Pick allocates %v times per call", n)
	}
}

func TestAffinityDeterministicAndSpread(t *testing.T) {
	bs := fakeBackends("i0", "i1", "i2")
	p := Policy{}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("plan-key-%d", i)
		first := p.Pick(key, bs)
		for j := 0; j < 3; j++ {
			if again := p.Pick(key, bs); again.ID != first.ID {
				t.Fatalf("key %q flapped: %s then %s", key, first.ID, again.ID)
			}
		}
		counts[first.ID]++
	}
	// Rendezvous hashing should spread distinct keys roughly evenly; with
	// 300 keys over 3 instances, each owner gets 100±wide margin.
	for id, n := range counts {
		if n < 50 || n > 150 {
			t.Fatalf("owner %s holds %d of 300 keys — hash badly skewed: %v", id, n, counts)
		}
	}
}

// TestAffinityStableUnderJoinLeave is the rendezvous-hashing property the
// policy exists for: when an instance leaves, only the keys it owned move;
// when an instance joins, keys only ever move TO the joiner.
func TestAffinityStableUnderJoinLeave(t *testing.T) {
	p := Policy{}
	full := fakeBackends("i0", "i1", "i2")
	keys := make([]string, 240)
	owner := map[string]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("n=%d|shape=auto", i)
		owner[keys[i]] = p.Pick(keys[i], full).ID
	}

	// Leave: drop i1. Keys not owned by i1 must keep their owner.
	without := fakeBackends("i0", "i2")
	moved := 0
	for _, k := range keys {
		now := p.Pick(k, without).ID
		if owner[k] == "i1" {
			moved++
			if now == "i1" {
				t.Fatalf("key %q still owned by departed instance", k)
			}
			continue
		}
		if now != owner[k] {
			t.Fatalf("key %q moved %s -> %s though its owner never left", k, owner[k], now)
		}
	}
	if moved == 0 {
		t.Fatal("degenerate hash: departed instance owned no keys")
	}

	// Join: add i3 to the full set. A key either keeps its owner or moves
	// to the joiner — never between old instances.
	joined := fakeBackends("i0", "i1", "i2", "i3")
	gained := 0
	for _, k := range keys {
		now := p.Pick(k, joined).ID
		if now == owner[k] {
			continue
		}
		if now != "i3" {
			t.Fatalf("key %q moved %s -> %s on join; only moves to i3 are legal", k, owner[k], now)
		}
		gained++
	}
	if gained == 0 || gained > len(keys)/2 {
		t.Fatalf("joiner gained %d of %d keys, want roughly 1/4", gained, len(keys))
	}
}
