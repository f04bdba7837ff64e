package router

import (
	"fmt"
	"hash/fnv"
)

// Policy is the router's one placement rule. It ranks instances by
// rendezvous (highest-random-weight) hashing on the job's plan key, so one
// instance's plan cache absorbs the whole key, and when an instance joins
// or leaves only the keys it owns (or wins) move. Two rules move a job
// past its key's owner, both read from the last health probe:
//
//   - Health class. Only instances of the best class present compete:
//     clean, then sick (probe-suspect, gray-hot or burning SLO budget),
//     then draining. A draining instance gets a job only when every
//     healthy instance is draining.
//   - Bounded load. A competitor whose queued + in-flight count, plus the
//     job being placed, would exceed ⌈1.25·(L+1)/n⌉ is skipped, where L is
//     the total load over the n competitors — consistent hashing with
//     bounded loads (Mirrokni, Thorup & Zadimoghaddam, SODA 2018). The
//     least-loaded competitor is always under the bound.
//
// The zero value is ready to use and safe for concurrent use.
type Policy struct{}

// policyName labels the placement rule in summagen_router_routed_total and
// the /healthz body.
const policyName = "affinity"

// ParsePolicy resolves the policy's flag names, "affinity" and
// "plan-affinity"; any other name is an error.
func ParsePolicy(name string) (Policy, error) {
	if name != "affinity" && name != "plan-affinity" {
		return Policy{}, fmt.Errorf("router: unknown policy %q (the router has one: affinity)", name)
	}
	return Policy{}, nil
}

// Health classes, best first.
const (
	classClean = iota
	classSick
	classDraining
)

// Pick selects one of the healthy backends for a job with the given plan
// key (sched.PlanKey of its spec), or nil if the slice is empty. It reads
// each backend's probe snapshot twice instead of collecting it, so it
// allocates nothing.
func (p Policy) Pick(planKey string, healthy []*Backend) *Backend {
	if len(healthy) == 0 {
		return nil
	}
	// Pass 1: the best class present, and the count and load of its members.
	best, n, total := classDraining+1, 0, 0
	for _, b := range healthy {
		class, load := b.placement()
		switch {
		case class < best:
			best, n, total = class, 1, load
		case class == best:
			n++
			total += load
		}
	}
	bound := (5*(total+1) + 4*n - 1) / (4 * n) // ⌈1.25·(L+1)/n⌉

	// Pass 2: the heaviest rendezvous weight among competitors under the
	// bound. A probe landing between the passes can move a snapshot, so
	// the lightest competitor stands in when none is under the bound.
	var owner, lightest *Backend
	var ownerW uint64
	lightLoad := 0
	for _, b := range healthy {
		class, load := b.placement()
		if class > best {
			continue
		}
		if lightest == nil || load < lightLoad {
			lightest, lightLoad = b, load
		}
		if load+1 > bound {
			continue
		}
		if w := rendezvousWeight(planKey, b.ID); owner == nil || w > ownerW || (w == ownerW && b.ID < owner.ID) {
			owner, ownerW = b, w
		}
	}
	if owner != nil {
		return owner
	}
	if lightest != nil {
		return lightest
	}
	// Every competitor turned sicker between the passes: read again.
	return p.Pick(planKey, healthy)
}

// rendezvousWeight is the HRW score of (key, instance).
func rendezvousWeight(planKey, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(planKey))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return h.Sum64()
}
