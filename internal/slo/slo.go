// Package slo layers service-level objectives over the metrics
// time-series store: per-tenant/per-class availability and latency
// objectives, error-budget accounting, and multi-window multi-burn-rate
// alerting in the Google SRE workbook shape — a fast pair of windows
// (5m/1h at 14.4× budget burn) pages on sudden budget incineration, a
// slow pair (30m/6h at 6×) on sustained bleed. An alert fires only when
// BOTH its windows exceed the threshold (the long window suppresses
// blips, the short one makes the alert reset fast after the incident),
// and clears with hysteresis after ClearHold consecutive quiet
// evaluations.
package slo

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Objective is one SLO class's targets. Availability is the target
// success ratio (0.999 → 0.1% error budget); LatencyTarget, when > 0, is
// the latency SLO threshold in seconds — requests slower than it spend
// latency budget (same budget fraction as availability).
type Objective struct {
	Class         string  `json:"class"`
	Availability  float64 `json:"availability"`
	LatencyTarget float64 `json:"latency_target_seconds,omitempty"`
}

// BurnRule is one multi-window burn-rate alert: fire when the burn rate
// over BOTH windows exceeds Threshold.
type BurnRule struct {
	Name      string        `json:"rule"`
	Short     time.Duration `json:"-"`
	Long      time.Duration `json:"-"`
	Threshold float64       `json:"threshold"`
}

// DefaultRules returns the standard fast (5m/1h, 14.4×) + slow (30m/6h,
// 6×) pairs, with every window multiplied by scale — smoke tests shrink
// whole alerting timelines to seconds with scale ≪ 1.
func DefaultRules(scale float64) []BurnRule {
	if scale <= 0 {
		scale = 1
	}
	d := func(v time.Duration) time.Duration { return time.Duration(float64(v) * scale) }
	return []BurnRule{
		{Name: "fast", Short: d(5 * time.Minute), Long: d(time.Hour), Threshold: 14.4},
		{Name: "slow", Short: d(30 * time.Minute), Long: d(6 * time.Hour), Threshold: 6},
	}
}

// The families the engine reads. Services register their request
// outcomes and latencies under these names.
const (
	// RequestsFamily is the counter family of request outcomes, labels
	// tenant/class/outcome (outcome ∈ ok|error).
	RequestsFamily = "summagen_slo_requests_total"
	// LatencyFamily is the histogram family of successful-request
	// latencies, labels tenant/class.
	LatencyFamily = "summagen_slo_latency_seconds"
)

// MaxLabels bounds the values a service exposes for one client-chosen
// label (tenant, SLO class). Each new value would add a child to every
// family carrying the label, and a series to the store, for ever.
const MaxLabels = 64

// Other is the label value of every value past the first MaxLabels.
const Other = "other"

// Labels folds the client-chosen values of one label into at most
// MaxLabels + 1 label values: the values it was seeded with and the first
// distinct values seen, MaxLabels in all, keep their own; every later one
// reads Other. The zero value is ready to use, and it is safe for
// concurrent use.
type Labels struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

// NewLabels returns a fold in which every seed keeps its own label,
// whatever values come first.
func NewLabels(seeds ...string) *Labels {
	l := &Labels{seen: make(map[string]struct{}, len(seeds))}
	for _, v := range seeds {
		l.seen[v] = struct{}{}
	}
	return l
}

// Label returns the label value for v.
func (l *Labels) Label(v string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.seen[v]; ok {
		return v
	}
	if len(l.seen) >= MaxLabels {
		return Other
	}
	if l.seen == nil {
		l.seen = map[string]struct{}{}
	}
	l.seen[v] = struct{}{}
	return v
}

// Config wires an engine to its store and objectives.
type Config struct {
	Store *metrics.Store
	// Objectives by class. Evaluation falls back to the "default" class
	// (or the first objective) for classes without an explicit entry.
	Objectives []Objective
	// Rules defaults to DefaultRules(1).
	Rules []BurnRule
	// ClearHold is how many consecutive quiet evaluations clear a firing
	// alert (default 3) — the flap guard.
	ClearHold int
	// OnTransition (optional) observes every alert fire/clear — the
	// flight recorder's event log hooks in here.
	OnTransition func(Transition)
}

// Transition is one alert state change.
type Transition struct {
	Tenant string    `json:"tenant"`
	Class  string    `json:"class"`
	SLI    string    `json:"sli"`
	Rule   string    `json:"rule"`
	Firing bool      `json:"firing"`
	At     time.Time `json:"at"`
}

// Engine evaluates burn-rate alerts against the store. Tick advances
// alert state; Report renders the current budgets and alert states.
type Engine struct {
	cfg Config

	mu     sync.Mutex
	alerts map[alertKey]*alertState
}

type alertKey struct {
	tenant, class, sli, rule string
}

type alertState struct {
	firing      bool
	clearStreak int
	since       time.Time
}

// New returns an engine; zero-value config fields take their defaults.
func New(cfg Config) *Engine {
	if len(cfg.Objectives) == 0 {
		cfg.Objectives = []Objective{{Class: "default", Availability: 0.999, LatencyTarget: 1}}
	}
	if len(cfg.Rules) == 0 {
		cfg.Rules = DefaultRules(1)
	}
	if cfg.ClearHold <= 0 {
		cfg.ClearHold = 3
	}
	return &Engine{cfg: cfg, alerts: map[alertKey]*alertState{}}
}

func (e *Engine) objective(class string) Objective {
	var fallback *Objective
	for i := range e.cfg.Objectives {
		o := &e.cfg.Objectives[i]
		if o.Class == class {
			return *o
		}
		if o.Class == "default" {
			fallback = o
		}
	}
	if fallback != nil {
		o := *fallback
		o.Class = class
		return o
	}
	o := e.cfg.Objectives[0]
	o.Class = class
	return o
}

// keys lists the distinct (tenant, class) pairs with request series.
func (e *Engine) keys() [][2]string {
	seen := map[[2]string]bool{}
	var out [][2]string
	for _, ls := range e.cfg.Store.LabelSets(RequestsFamily) {
		k := [2]string{ls["tenant"], ls["class"]}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// burn computes one SLI's burn rate over one window: the bad-event ratio
// divided by the error budget. Zero traffic burns nothing.
func (e *Engine) burn(tenant, class, sli string, o Objective, w time.Duration, now time.Time) float64 {
	budget := 1 - o.Availability
	if budget <= 0 {
		budget = 1e-9
	}
	labels := map[string]string{"tenant": tenant, "class": class}
	switch sli {
	case "availability":
		labels["outcome"] = "error"
		bad, _ := e.cfg.Store.Increase(RequestsFamily, labels, w, now)
		labels["outcome"] = "ok"
		ok, _ := e.cfg.Store.Increase(RequestsFamily, labels, w, now)
		total := bad + ok
		if total <= 0 {
			return 0
		}
		return (bad / total) / budget
	case "latency":
		good, total, ok := e.cfg.Store.CountOverLE(LatencyFamily, labels, o.LatencyTarget, w, now)
		if !ok || total <= 0 {
			return 0
		}
		return ((total - good) / total) / budget
	}
	return 0
}

func (e *Engine) slis(o Objective) []string {
	if o.LatencyTarget > 0 {
		return []string{"availability", "latency"}
	}
	return []string{"availability"}
}

// Tick evaluates every alert once at `now`. Call it after each sampler
// tick so alert state advances in lockstep with the series it reads.
func (e *Engine) Tick(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, tc := range e.keys() {
		tenant, class := tc[0], tc[1]
		o := e.objective(class)
		for _, sli := range e.slis(o) {
			for _, rule := range e.cfg.Rules {
				cond := e.burn(tenant, class, sli, o, rule.Short, now) > rule.Threshold &&
					e.burn(tenant, class, sli, o, rule.Long, now) > rule.Threshold
				key := alertKey{tenant, class, sli, rule.Name}
				st := e.alerts[key]
				if st == nil {
					st = &alertState{}
					e.alerts[key] = st
				}
				switch {
				case cond && !st.firing:
					st.firing = true
					st.since = now
					st.clearStreak = 0
					e.transition(key, true, now)
				case cond && st.firing:
					st.clearStreak = 0
				case !cond && st.firing:
					st.clearStreak++
					if st.clearStreak >= e.cfg.ClearHold {
						st.firing = false
						st.since = now
						e.transition(key, false, now)
					}
				}
			}
		}
	}
}

func (e *Engine) transition(key alertKey, firing bool, now time.Time) {
	if e.cfg.OnTransition == nil {
		return
	}
	e.cfg.OnTransition(Transition{
		Tenant: key.tenant, Class: key.class, SLI: key.sli, Rule: key.rule,
		Firing: firing, At: now,
	})
}

// FiringCount returns how many alerts are currently firing.
func (e *Engine) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.alerts {
		if st.firing {
			n++
		}
	}
	return n
}

// Report is the JSON shape of GET /slo.
type Report struct {
	GeneratedAt time.Time         `json:"generated_at"`
	Firing      int               `json:"firing"`
	Objectives  []ObjectiveStatus `json:"objectives"`
}

// ObjectiveStatus is one (tenant, class) pair's budgets and alerts.
type ObjectiveStatus struct {
	Tenant        string      `json:"tenant"`
	Class         string      `json:"class"`
	Availability  float64     `json:"availability_target"`
	LatencyTarget float64     `json:"latency_target_seconds,omitempty"`
	SLIs          []SLIStatus `json:"slis"`
}

// SLIStatus is one SLI's budget consumption and alert states.
type SLIStatus struct {
	Name string `json:"sli"`
	// BudgetConsumed is the fraction of error budget burned over the
	// longest configured window (≥ 1 means the budget is gone).
	BudgetConsumed float64       `json:"budget_consumed"`
	Alerts         []AlertStatus `json:"alerts"`
}

// AlertStatus is one burn-rate rule's current evaluation.
type AlertStatus struct {
	Rule         string    `json:"rule"`
	ShortSeconds float64   `json:"short_window_seconds"`
	LongSeconds  float64   `json:"long_window_seconds"`
	ShortBurn    float64   `json:"short_burn"`
	LongBurn     float64   `json:"long_burn"`
	Threshold    float64   `json:"threshold"`
	Firing       bool      `json:"firing"`
	Since        time.Time `json:"since,omitempty"`
}

// Report renders the current SLO state for every observed (tenant,
// class) pair.
func (e *Engine) Report(now time.Time) Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := Report{GeneratedAt: now}
	var longest time.Duration
	for _, r := range e.cfg.Rules {
		if r.Long > longest {
			longest = r.Long
		}
	}
	for _, tc := range e.keys() {
		tenant, class := tc[0], tc[1]
		o := e.objective(class)
		os := ObjectiveStatus{
			Tenant: tenant, Class: class,
			Availability: o.Availability, LatencyTarget: o.LatencyTarget,
		}
		for _, sli := range e.slis(o) {
			// burn × (window / budget-exhaustion horizon) would be the
			// true consumed fraction; reporting burn over the longest
			// window normalized to 1× keeps the number interpretable:
			// 1.0 = consuming exactly the budget rate.
			st := SLIStatus{Name: sli, BudgetConsumed: round6(e.burn(tenant, class, sli, o, longest, now))}
			for _, rule := range e.cfg.Rules {
				key := alertKey{tenant, class, sli, rule.Name}
				as := AlertStatus{
					Rule:         rule.Name,
					ShortSeconds: rule.Short.Seconds(),
					LongSeconds:  rule.Long.Seconds(),
					ShortBurn:    round6(e.burn(tenant, class, sli, o, rule.Short, now)),
					LongBurn:     round6(e.burn(tenant, class, sli, o, rule.Long, now)),
					Threshold:    rule.Threshold,
				}
				if st2 := e.alerts[key]; st2 != nil {
					as.Firing = st2.firing
					if st2.firing {
						as.Since = st2.since
					}
				}
				st.Alerts = append(st.Alerts, as)
				if as.Firing {
					rep.Firing++
				}
			}
			os.SLIs = append(os.SLIs, st)
		}
		rep.Objectives = append(rep.Objectives, os)
	}
	return rep
}

func round6(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	return math.Round(v*1e6) / 1e6
}
