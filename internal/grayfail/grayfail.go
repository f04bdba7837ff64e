// Package grayfail turns transport-level health signals into gray-failure
// verdicts. Fail-stop detection (netmpi's OpTimeout) catches peers that die;
// it cannot catch peers that are up but sick — a link crawling at 1% of its
// bandwidth, RTT inflated 20× by a failing NIC, a rank whose heartbeats
// arrive but whose bulk frames barely move. Such a peer keeps every
// deadline fed while dragging the whole collective to its speed.
//
// The Detector consumes periodic per-link Samples (RTT EWMA/p99/min and
// goodput, as exported by netmpi.PeerStats) and classifies each link
// Healthy, Suspect or Degraded. The policy is deliberately conservative:
//
//   - Evidence is relative. A link is judged against its own observed
//     minimum RTT and peak goodput, not absolute thresholds, so a slow WAN
//     link is not condemned for being a WAN link.
//   - An absolute floor exempts fast links: RTT inflation below
//     FloorSeconds is noise (a GC pause, a scheduler hiccup), never
//     evidence.
//   - Hysteresis both ways: DegradeStreak consecutive bad observations to
//     condemn, HealStreak consecutive good ones to acquit. One outlier
//     moves nothing.
//   - A flap guard: a link that keeps oscillating past MaxTrips is pinned
//     at Suspect — repeated proactive replans on flapping evidence would
//     cost more than the slowness they avoid.
//   - Direction attribution: a round trip is blind to which leg is slow —
//     one sick outbound leg inflates the RTT measured from BOTH ends of
//     the link, making the innocent end look as guilty as the sick one.
//     Each verdict therefore carries LinkHealth.InboundDelayed, derived
//     from one-way beat delay; callers blame the remote end only when its
//     sending leg is the delayed one.
//
// The caller (sched.NetmpiRunner's monitor) maps Degraded links onto a
// victim rank and converts the verdict into an immediate typed failure via
// netmpi.Endpoint.FailPeer, steering the existing survivor-replan recovery
// loop long before any hard timeout would fire.
package grayfail

import "sync"

// State classifies one monitored link.
type State int

const (
	// Healthy: no evidence of gray failure.
	Healthy State = iota
	// Suspect: RTT or goodput evidence present but not yet past the
	// hysteresis streak — or past it on a link the flap guard has pinned.
	Suspect
	// Degraded: sustained evidence; the caller should act.
	Degraded
)

// Config tunes the detector. The zero value is usable: every field
// defaults to the documented value when non-positive.
type Config struct {
	// SuspectFactor is the RTT inflation ratio (EWMA over windowed min)
	// at which a link turns Suspect. Default 4.
	SuspectFactor float64
	// DegradeFactor is the inflation ratio that counts as degraded
	// evidence on its own. Default 8.
	DegradeFactor float64
	// GoodputFactor is the goodput collapse ratio (peak over current) that
	// upgrades Suspect-level RTT evidence to degraded evidence. Default 10.
	GoodputFactor float64
	// FloorSeconds exempts fast links: EWMA RTT below this is never
	// evidence regardless of ratio. Default 2ms.
	FloorSeconds float64
	// MinSamples is the number of completed RTT exchanges required before
	// any verdict; below it every link is Healthy. Default 4.
	MinSamples int64
	// DegradeStreak is how many consecutive bad observations condemn.
	// Default 3.
	DegradeStreak int
	// HealStreak is how many consecutive clean observations acquit a
	// Suspect or Degraded link. Default 4.
	HealStreak int
	// MaxTrips is the flap guard: after this many Healthy→Degraded trips
	// the link is pinned at Suspect. Default 2; negative disables the
	// guard.
	MaxTrips int
	// AbsoluteSeconds, when positive, is an operator-supplied absolute
	// bound: EWMA RTT at or above it is degraded evidence on its own,
	// with no baseline ratio required. The relative policy needs at
	// least one healthy sample to form a baseline; a link that is sick
	// from birth inflates its own minimum and keeps the ratio near 1.
	// Operators who know their fabric ("no healthy link here has 250ms
	// RTT") close that hole with this bound. Default 0 = disabled.
	AbsoluteSeconds float64
}

func (c Config) withDefaults() Config {
	if c.SuspectFactor <= 0 {
		c.SuspectFactor = 4
	}
	if c.DegradeFactor <= 0 {
		c.DegradeFactor = 8
	}
	if c.GoodputFactor <= 0 {
		c.GoodputFactor = 10
	}
	if c.FloorSeconds <= 0 {
		c.FloorSeconds = 2e-3
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.DegradeStreak <= 0 {
		c.DegradeStreak = 3
	}
	if c.HealStreak <= 0 {
		c.HealStreak = 4
	}
	if c.MaxTrips == 0 {
		c.MaxTrips = 2
	}
	return c
}

// Sample is one observation of one link, as read from a transport-stats
// snapshot (netmpi.PeerStats).
type Sample struct {
	// RTTEWMA, RTTMin are the smoothed and windowed-minimum round-trip
	// estimates in seconds; RTTMin is the link's own healthy baseline.
	RTTEWMA, RTTMin float64
	// GoodputBytesPerSec is received payload per second blocked on the
	// wire; zero means no bulk traffic yet (goodput evidence is skipped).
	GoodputBytesPerSec float64
	// InboundDelaySeconds is the average one-way delay of beats received
	// from the remote end (netmpi's HeartbeatDelaySeconds over
	// Heartbeats). RTT is direction-blind — a sick outbound leg at rank V
	// inflates the round trip measured from BOTH ends of every link V
	// touches, so RTT alone accuses the innocent end too. Inbound delay
	// is direction-aware: only the observers of V's sick outbound see it.
	// Meaningful when the two hosts' clocks agree to within the
	// thresholds (true for the loopback runtime; multi-host callers
	// should fold in their clock-offset estimate first).
	InboundDelaySeconds float64
	// Samples is the number of completed RTT exchanges behind the
	// estimates; relative verdicts need Config.MinSamples of them.
	Samples int64
}

// LinkHealth is one link's current verdict and the evidence behind it.
type LinkHealth struct {
	State State
	// RTTRatio is the last observed EWMA-over-min inflation.
	RTTRatio float64
	// InboundDelayed reports that the inbound one-way beat delay accounts
	// for a substantial share of the inflated round trip — the evidence
	// points at the REMOTE end's sending path, so a Degraded verdict may
	// be attributed to the peer. A Degraded link without it says only
	// "this pair is slow", and the slow leg may be the observer's own
	// outbound.
	InboundDelayed bool
	// BadStreak / GoodStreak are the current hysteresis counters.
	BadStreak, GoodStreak int
	// Trips counts Healthy→Degraded transitions (the flap-guard budget).
	Trips int
}

// link is the per-key mutable state.
type link struct {
	health      LinkHealth
	peakGoodput float64
}

// Detector classifies links keyed by an opaque string (the runner uses
// "observer→victim" directed pairs). Safe for concurrent use.
type Detector struct {
	cfg Config

	mu    sync.Mutex
	links map[string]*link
}

// New builds a Detector; cfg fields at zero take their defaults.
func New(cfg Config) *Detector {
	return &Detector{cfg: cfg.withDefaults(), links: map[string]*link{}}
}

// Observe folds one sample into the link's state and returns the updated
// verdict.
func (d *Detector) Observe(key string, s Sample) State {
	d.mu.Lock()
	defer d.mu.Unlock()
	l := d.links[key]
	if l == nil {
		l = &link{}
		d.links[key] = l
	}
	if s.GoodputBytesPerSec > l.peakGoodput {
		l.peakGoodput = s.GoodputBytesPerSec
	}
	// The MinSamples gate protects the relative baseline: a ratio over a
	// one-sample minimum is meaningless. The absolute bound is exempt —
	// on a link so starved that beats barely complete (the degradation
	// itself suppresses sampling), a single exchange measured in whole
	// seconds is conclusive, and waiting for more would let the starved
	// link veto its own condemnation.
	absoluteRTT := d.cfg.AbsoluteSeconds > 0 && s.Samples > 0 &&
		s.RTTEWMA >= d.cfg.AbsoluteSeconds
	if s.Samples < d.cfg.MinSamples && !absoluteRTT {
		return l.health.State // not enough evidence to move either way
	}

	ratio := 0.0
	if s.RTTMin > 0 {
		ratio = s.RTTEWMA / s.RTTMin
	}
	l.health.RTTRatio = ratio

	aboveFloor := s.RTTEWMA >= d.cfg.FloorSeconds
	relative := s.Samples >= d.cfg.MinSamples
	suspectRTT := (relative && aboveFloor && ratio >= d.cfg.SuspectFactor) || absoluteRTT
	degradeRTT := (relative && aboveFloor && ratio >= d.cfg.DegradeFactor) || absoluteRTT
	// Direction attribution: the inbound leg carries a substantial share
	// of the round trip (0.4 leaves margin for a symmetric sickness,
	// where each leg is half). Kept as evidence on the verdict, not a
	// verdict input — a one-sided slow pair is still a Degraded link,
	// the caller just must not blame the remote end for it.
	l.health.InboundDelayed = aboveFloor && s.InboundDelaySeconds >= 0.4*s.RTTEWMA
	goodputCollapsed := l.peakGoodput > 0 && s.GoodputBytesPerSec > 0 &&
		l.peakGoodput >= d.cfg.GoodputFactor*s.GoodputBytesPerSec

	bad := degradeRTT || (suspectRTT && goodputCollapsed)
	switch {
	case bad:
		l.health.BadStreak++
		l.health.GoodStreak = 0
		if l.health.BadStreak >= d.cfg.DegradeStreak {
			if l.health.State != Degraded {
				if d.cfg.MaxTrips >= 0 && l.health.Trips >= d.cfg.MaxTrips {
					l.health.State = Suspect // flap guard: stop condemning
					break
				}
				l.health.Trips++
			}
			l.health.State = Degraded
		} else {
			l.health.State = Suspect
		}
	case suspectRTT:
		// Evidence below the condemnation bar but above clean: hold the
		// state, reset both streaks — neither condemns nor acquits.
		l.health.BadStreak = 0
		l.health.GoodStreak = 0
		if l.health.State == Healthy {
			l.health.State = Suspect
		}
	default:
		l.health.GoodStreak++
		l.health.BadStreak = 0
		if l.health.GoodStreak >= d.cfg.HealStreak {
			l.health.State = Healthy
		}
	}
	return l.health.State
}

// Health returns the link's full current health (zero value for unknown
// keys).
func (d *Detector) Health(key string) LinkHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	if l := d.links[key]; l != nil {
		return l.health
	}
	return LinkHealth{}
}
