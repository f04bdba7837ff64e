package router

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// Policy picks which healthy instance receives a job. Pick is called with
// the job's plan key (sched.PlanKey of its spec — the plan-cache and
// affinity key)
// and a non-empty slice of currently healthy backends, in stable
// registration order. Implementations must be safe for concurrent use.
type Policy interface {
	// Name labels the policy in metrics and logs.
	Name() string
	// Pick selects one of the healthy backends, or nil if the slice is
	// empty.
	Pick(planKey string, healthy []*Backend) *Backend
}

// ParsePolicy resolves a policy by flag name.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "round-robin":
		return &RoundRobin{}, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "affinity", "plan-affinity":
		return PlanAffinity{}, nil
	default:
		return nil, fmt.Errorf("router: unknown policy %q (valid: round-robin, least-loaded, affinity)", name)
	}
}

// RoundRobin cycles through healthy backends in order — the baseline that
// ignores both load and plan locality.
type RoundRobin struct {
	n atomic.Uint64
}

func (p *RoundRobin) Name() string { return "round-robin" }

func (p *RoundRobin) Pick(_ string, healthy []*Backend) *Backend {
	if len(healthy) == 0 {
		return nil
	}
	return healthy[(p.n.Add(1)-1)%uint64(len(healthy))]
}

// LeastLoaded picks the instance with the smallest queued + in-flight
// count from its last health probe, with two gray adjustments: draining
// and probe-suspect instances lose to clean ones regardless of load
// (draining worst), and a gray-hot instance — one whose own gray-recovery
// counter rose recently — carries grayPenalty phantom jobs, so it still
// wins when everything else is much busier but loses near-ties. Ties
// break on the lower ID so repeated picks under equal load are
// deterministic.
type LeastLoaded struct{}

const (
	// grayPenalty is the phantom load added to a gray-hot instance.
	grayPenalty = 4
	// sloPenalty is the phantom load added per burn-rate alert currently
	// firing on the instance: an instance burning its error budget should
	// stop winning near-ties before it tips into violation.
	sloPenalty = 3
)

func (LeastLoaded) Name() string { return "least-loaded" }

// score ranks a backend: lower class wins before load is even compared
// (0 clean, 1 probe-suspect, 2 draining), then effective load.
func (LeastLoaded) score(b *Backend) (class, load int) {
	ls := b.Load()
	switch {
	case ls.Draining:
		class = 2
	case b.Suspect():
		class = 1
	}
	load = ls.Load()
	if b.GrayHot() {
		load += grayPenalty
	}
	return class, load + sloPenalty*ls.SLOFiring
}

func (p LeastLoaded) Pick(_ string, healthy []*Backend) *Backend {
	if len(healthy) == 0 {
		return nil
	}
	best := healthy[0]
	bestClass, bestLoad := p.score(best)
	for _, b := range healthy[1:] {
		class, load := p.score(b)
		if class < bestClass ||
			(class == bestClass && (load < bestLoad ||
				(load == bestLoad && b.ID < best.ID))) {
			best, bestClass, bestLoad = b, class, load
		}
	}
	return best
}

// PlanAffinity routes jobs sharing a plan key to the same instance via
// rendezvous (highest-random-weight) hashing, so one instance's plan cache
// absorbs the whole key. Rendezvous hashing gives the
// stability the cluster needs: when an instance joins or leaves, only the
// keys it owns (or wins) move — every other key keeps its instance, and a
// key whose owner dies falls deterministically to its runner-up.
type PlanAffinity struct{}

func (PlanAffinity) Name() string { return "affinity" }

func (PlanAffinity) Pick(planKey string, healthy []*Backend) *Backend {
	if len(healthy) == 0 {
		return nil
	}
	best := healthy[0]
	bestW := rendezvousWeight(planKey, best.ID)
	for _, b := range healthy[1:] {
		if w := rendezvousWeight(planKey, b.ID); w > bestW || (w == bestW && b.ID < best.ID) {
			best, bestW = b, w
		}
	}
	return best
}

// rendezvousWeight is the HRW score of (key, instance).
func rendezvousWeight(planKey, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(planKey))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return h.Sum64()
}
