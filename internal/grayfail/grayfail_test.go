package grayfail

import "testing"

// healthy is a baseline sample: 1ms EWMA over a 1ms floor, plenty of
// samples, steady goodput.
func healthy() Sample {
	return Sample{RTTEWMA: 1e-3, RTTMin: 1e-3, GoodputBytesPerSec: 1e8, Samples: 100}
}

// inflated returns a sample whose EWMA sits at factor× the baseline min.
func inflated(factor float64) Sample {
	s := healthy()
	s.RTTEWMA = factor * s.RTTMin
	return s
}

func TestHealthyStaysHealthy(t *testing.T) {
	d := New(Config{})
	for i := 0; i < 50; i++ {
		if st := d.Observe("a", healthy()); st != Healthy {
			t.Fatalf("observation %d: state %v, want Healthy", i, st)
		}
	}
}

func TestDegradeNeedsStreak(t *testing.T) {
	d := New(Config{DegradeStreak: 3})
	// Two bad observations: suspect, not degraded.
	for i := 0; i < 2; i++ {
		if st := d.Observe("a", inflated(20)); st == Degraded {
			t.Fatalf("observation %d: condemned before the streak", i)
		}
	}
	if st := d.Observe("a", inflated(20)); st != Degraded {
		t.Fatalf("third bad observation: state %v, want Degraded", st)
	}
}

func TestSingleOutlierIsForgiven(t *testing.T) {
	d := New(Config{DegradeStreak: 3, HealStreak: 2})
	d.Observe("a", healthy())
	d.Observe("a", inflated(20)) // one GC pause
	for i := 0; i < 5; i++ {
		d.Observe("a", healthy())
	}
	if st := d.Health("a").State; st != Healthy {
		t.Fatalf("state after recovery %v, want Healthy", st)
	}
}

func TestMinSamplesGate(t *testing.T) {
	d := New(Config{MinSamples: 10, DegradeStreak: 1})
	s := inflated(100)
	s.Samples = 5
	if st := d.Observe("a", s); st != Healthy {
		t.Fatalf("verdict on %d samples: %v, want Healthy", s.Samples, st)
	}
}

func TestAbsoluteFloorExemptsFastLinks(t *testing.T) {
	d := New(Config{FloorSeconds: 2e-3, DegradeStreak: 1})
	// 50µs min inflated 20× is still only 1ms — below the floor.
	s := Sample{RTTEWMA: 1e-3, RTTMin: 5e-5, Samples: 100}
	if st := d.Observe("a", s); st != Healthy {
		t.Fatalf("sub-floor inflation condemned: %v", st)
	}
}

func TestGoodputCollapseUpgradesSuspect(t *testing.T) {
	d := New(Config{SuspectFactor: 4, DegradeFactor: 100, GoodputFactor: 10, DegradeStreak: 2})
	// Establish a goodput baseline.
	d.Observe("a", healthy())
	// RTT at 5× (suspect-level, below the 100× degrade bar) alone: never
	// degraded.
	for i := 0; i < 5; i++ {
		if st := d.Observe("a", inflated(5)); st == Degraded {
			t.Fatal("suspect-level RTT alone condemned")
		}
	}
	// Same RTT with goodput collapsed 20×: counts as degraded evidence.
	s := inflated(5)
	s.GoodputBytesPerSec = healthy().GoodputBytesPerSec / 20
	d.Observe("a", s)
	if st := d.Observe("a", s); st != Degraded {
		t.Fatalf("RTT+goodput evidence: %v, want Degraded", st)
	}
}

func TestHysteresisAcquittal(t *testing.T) {
	d := New(Config{DegradeStreak: 1, HealStreak: 3, MaxTrips: -1})
	d.Observe("a", inflated(20))
	if st := d.Health("a").State; st != Degraded {
		t.Fatalf("setup: %v", st)
	}
	// Two clean observations: still not acquitted.
	d.Observe("a", healthy())
	if st := d.Observe("a", healthy()); st == Healthy {
		t.Fatal("acquitted before HealStreak")
	}
	if st := d.Observe("a", healthy()); st != Healthy {
		t.Fatalf("after HealStreak: %v, want Healthy", st)
	}
}

func TestFlapGuardPinsAtSuspect(t *testing.T) {
	d := New(Config{DegradeStreak: 1, HealStreak: 1, MaxTrips: 2})
	flap := func() State {
		st := d.Observe("a", inflated(20))
		d.Observe("a", healthy())
		return st
	}
	if st := flap(); st != Degraded {
		t.Fatalf("trip 1: %v", st)
	}
	if st := flap(); st != Degraded {
		t.Fatalf("trip 2: %v", st)
	}
	// Third oscillation: the guard holds the link at Suspect.
	if st := d.Observe("a", inflated(20)); st != Suspect {
		t.Fatalf("trip 3: %v, want Suspect (flap guard)", st)
	}
}

func TestLinksAreIndependent(t *testing.T) {
	d := New(Config{DegradeStreak: 1})
	d.Observe("sick", inflated(20))
	if st := d.Health("sick").State; st != Degraded {
		t.Fatalf("sick link: %v", st)
	}
	if st := d.Observe("fine", healthy()); st != Healthy {
		t.Fatalf("healthy link contaminated: %v", st)
	}
	sick, fine := d.Health("sick"), d.Health("fine")
	if sick.State != Degraded || fine.State != Healthy {
		t.Fatalf("health mismatch: sick %+v, fine %+v", sick, fine)
	}
	if sick.Trips != 1 {
		t.Fatalf("trips = %d, want 1", sick.Trips)
	}
}

func TestAbsoluteBoundCondemnsBaselinelessLink(t *testing.T) {
	// A link that is sick from birth inflates its own minimum: the ratio
	// stays near 1 and the relative policy can never fire. The operator
	// absolute bound closes that hole.
	d := New(Config{AbsoluteSeconds: 0.25, DegradeStreak: 2})
	s := Sample{RTTEWMA: 1.5, RTTMin: 1.2, Samples: 10}
	if got := d.Observe("a>b", s); got == Degraded {
		t.Fatal("one observation must not condemn")
	}
	if got := d.Observe("a>b", s); got != Degraded {
		t.Fatalf("state %v, want degraded under the absolute bound", got)
	}
	// The same evidence without the bound stays clean: judged only against
	// its own baseline, a uniformly slow link is just a slow link.
	d2 := New(Config{DegradeStreak: 2})
	d2.Observe("a>b", s)
	if got := d2.Observe("a>b", s); got != Healthy {
		t.Fatalf("relative-only detector = %v, want healthy (ratio ~1)", got)
	}
}

func TestAbsoluteBoundBypassesMinSamplesGate(t *testing.T) {
	// A choked link suppresses its own sampling — beats complete rarely,
	// if ever. One exchange measured in whole seconds must still count as
	// evidence: waiting for MinSamples would let the starved link veto its
	// own condemnation.
	d := New(Config{AbsoluteSeconds: 0.25, DegradeStreak: 2, MinSamples: 8})
	s := Sample{RTTEWMA: 10, RTTMin: 10, Samples: 1}
	d.Observe("a>b", s)
	if got := d.Observe("a>b", s); got != Degraded {
		t.Fatalf("state %v, want degraded on one whole-seconds sample", got)
	}
	// Zero samples means no estimate at all: never evidence.
	if got := d.Observe("a>c", Sample{RTTEWMA: 10, Samples: 0}); got != Healthy {
		t.Fatalf("state %v for zero-sample link, want healthy", got)
	}
}

func TestInboundDelayAttributesDirection(t *testing.T) {
	// One sick outbound leg at rank V inflates the RTT seen from BOTH ends
	// of the link. The two verdicts are both Degraded — the pair really is
	// slow — but only the observer of V's sending path gets the
	// InboundDelayed attribution that justifies blaming V.
	d := New(Config{AbsoluteSeconds: 0.25, DegradeStreak: 1})
	observer := Sample{RTTEWMA: 9, RTTMin: 9, InboundDelaySeconds: 9, Samples: 5}
	victimView := Sample{RTTEWMA: 9, RTTMin: 9, InboundDelaySeconds: 1e-4, Samples: 5}
	if got := d.Observe("2>1", observer); got != Degraded {
		t.Fatalf("observer verdict %v, want degraded", got)
	}
	if got := d.Observe("1>2", victimView); got != Degraded {
		t.Fatalf("victim-side verdict %v, want degraded (the pair is slow)", got)
	}
	if !d.Health("2>1").InboundDelayed {
		t.Fatal("observer of the sick leg must carry the inbound attribution")
	}
	if d.Health("1>2").InboundDelayed {
		t.Fatal("the victim's own view must not accuse the innocent peer")
	}
	// A symmetric sickness delays each leg by roughly half the RTT; the
	// 0.4 margin still attributes it.
	d.Observe("0>3", Sample{RTTEWMA: 9, RTTMin: 9, InboundDelaySeconds: 4.5, Samples: 5})
	if !d.Health("0>3").InboundDelayed {
		t.Fatal("symmetric sickness (inbound = RTT/2) must still attribute")
	}
}
