package faultinject

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParsePlan builds a Plan from the compact command-line chaos grammar:
//
//	rule ::= kind ":" key "=" val { "," key "=" val }
//	plan ::= rule { ";" rule }
//
// Kinds: kill (Close), drop, delay, corrupt, slowlink, partition.
// Keys (all optional; rank/peer default -1 = any, after defaults 1):
//
//	rank=N peer=N        match the owning rank / the peer direction
//	after=N              1-based counted-frame trigger index
//	fires=N              MaxFires cap
//	delay=DUR            Delay's per-write sleep (Go duration syntax)
//	flips=N offset=N     Corrupt's bits per frame and minimum byte offset
//	seed=N               Corrupt flip positions / SlowLink jitter stream
//	rate=N[k|m]          SlowLink bytes/sec (k = ×1024, m = ×1024²)
//	jitter=DUR           SlowLink max extra per-write delay
//	heal=DUR             Partition duration (0 or absent = never heals)
//
// Example — cut rank 2's outbound links for 300ms and corrupt rank 0's
// third data frame toward rank 1:
//
//	partition:rank=2,heal=300ms;corrupt:rank=0,peer=1,after=3,fires=1
//
// The caller supplies Plan.SkipCount (ParsePlan leaves it nil).
func ParsePlan(s string) (Plan, error) {
	var plan Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return plan, nil
	}
	for _, spec := range strings.Split(s, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		rule, err := parseRule(spec)
		if err != nil {
			return Plan{}, err
		}
		plan.Rules = append(plan.Rules, rule)
	}
	return plan, nil
}

func parseRule(spec string) (Rule, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	r := Rule{Rank: -1, Peer: -1, AfterFrames: 1}
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "kill", "close":
		r.Action = Close
	case "drop":
		r.Action = Drop
	case "delay":
		r.Action = Delay
	case "corrupt":
		r.Action = Corrupt
	case "slowlink":
		r.Action = SlowLink
	case "partition":
		r.Action = Partition
	default:
		return Rule{}, fmt.Errorf("faultinject: unknown chaos kind %q in %q", kind, spec)
	}
	if strings.TrimSpace(rest) == "" {
		return finishRule(r, spec)
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Rule{}, fmt.Errorf("faultinject: %q in %q is not key=val", kv, spec)
		}
		key, val = strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)
		var err error
		switch key {
		case "rank":
			r.Rank, err = strconv.Atoi(val)
		case "peer":
			r.Peer, err = strconv.Atoi(val)
		case "after":
			r.AfterFrames, err = strconv.Atoi(val)
		case "fires":
			r.MaxFires, err = strconv.Atoi(val)
		case "delay":
			r.Delay, err = time.ParseDuration(val)
		case "flips":
			r.FlipBits, err = strconv.Atoi(val)
		case "offset":
			r.PayloadOffset, err = strconv.Atoi(val)
		case "seed":
			r.Seed, err = strconv.ParseInt(val, 10, 64)
		case "rate":
			r.Rate, err = parseRate(val)
		case "jitter":
			r.Jitter, err = time.ParseDuration(val)
		case "heal":
			r.Heal, err = time.ParseDuration(val)
		default:
			return Rule{}, fmt.Errorf("faultinject: unknown key %q in %q", key, spec)
		}
		if err != nil {
			return Rule{}, fmt.Errorf("faultinject: bad %s in %q: %v", key, spec, err)
		}
	}
	return finishRule(r, spec)
}

// finishRule validates cross-field requirements.
func finishRule(r Rule, spec string) (Rule, error) {
	switch {
	case r.Action == Delay && r.Delay <= 0:
		return Rule{}, fmt.Errorf("faultinject: delay rule %q needs delay=DUR", spec)
	case r.Action == SlowLink && r.Rate <= 0:
		return Rule{}, fmt.Errorf("faultinject: slowlink rule %q needs rate=N", spec)
	case r.AfterFrames < 1:
		return Rule{}, fmt.Errorf("faultinject: rule %q needs after >= 1", spec)
	}
	return r, nil
}

// parseRate parses a byte rate with optional k/m binary suffix. A rate
// whose product with the suffix leaves int64 is an error, not a wrapped
// value.
func parseRate(val string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(val, "m"), strings.HasSuffix(val, "M"):
		mult, val = 1<<20, val[:len(val)-1]
	case strings.HasSuffix(val, "k"), strings.HasSuffix(val, "K"):
		mult, val = 1<<10, val[:len(val)-1]
	}
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, err
	}
	if n > math.MaxInt64/mult || n < math.MinInt64/mult {
		return 0, fmt.Errorf("%s×%d overflows int64", val, mult)
	}
	return n * mult, nil
}
