package sched

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grayfail"
	"repro/internal/netmpi"
)

// chaosPlanHook builds a WrapConn applying an arbitrary faultinject plan to
// every epoch-0 mesh, one injector per job (so MaxFires and Partition heal
// clocks span the job's connections) — the same shape as summagen-serve's
// -chaos flag.
func chaosPlanHook(plan faultinject.Plan) func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
	plan.SkipCount = netmpi.IsHeartbeatFrame
	var mu sync.Mutex
	injectors := map[string]*faultinject.Injector{}
	return func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
		if epoch != 0 {
			return nil
		}
		mu.Lock()
		inj := injectors[jobID]
		if inj == nil {
			inj = faultinject.New(plan)
			injectors[jobID] = inj
		}
		mu.Unlock()
		return inj.WrapConn(rank)
	}
}

// TestChaosMeshDigestIdentical is the non-fail-stop acceptance matrix:
// inject corruption, a bandwidth-capped link, and an asymmetric partition
// into epoch-0 meshes across two partition shapes, and require every job's
// digest to equal the fault-free in-process reference. Whether a scenario
// only slows the run or fails a peer and costs a survivor-replan recovery,
// the result must be bit-identical every time.
func TestChaosMeshDigestIdentical(t *testing.T) {
	const n, seed = 48, 5

	// Fault-free reference digest from the in-process runtime (recovery
	// off): digests are layout- and runtime-independent.
	ref := newTestScheduler(t, nil)
	vr, err := ref.Submit(JobSpec{N: n, Shape: "square-corner", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, vr.ID, 60*time.Second)
	if want.State != StateDone || want.Digest == "" {
		t.Fatalf("reference job: state %v err %v", want.State, want.Err)
	}
	refDigest := want.Digest

	scenarios := []struct {
		name string
		plan string
		// check runs extra scenario-specific assertions.
		check func(t *testing.T, v JobView, m Metrics)
	}{
		{
			// One seed-deterministic payload flip on rank 0's second data
			// frame (every shape's epoch-0 mesh reaches two counted frames
			// on some rank-0 connection): the CRC must catch it — never a
			// silent wrong digest — the corruption must surface in the
			// transport counters, and the failed peer costs a recovery.
			name: "corrupt",
			plan: "corrupt:rank=0,after=2,fires=1,offset=16,seed=11",
			check: func(t *testing.T, v JobView, m Metrics) {
				var corrupt uint64
				for _, pc := range m.Net.PerPeer {
					corrupt += pc.CorruptFrames
				}
				if corrupt == 0 {
					t.Fatal("no corrupt frame counted — the flip never fired or the CRC missed it")
				}
				if v.Attempts < 1 {
					t.Fatal("corruption caught, but the job was not recovered")
				}
			},
		},
		{
			// Rank 1's outbound links capped at 256 KiB/s with jitter: the
			// run crawls but stays correct.
			name: "slowlink",
			plan: "slowlink:rank=1,rate=256k,jitter=2ms,seed=3",
		},
		{
			// Asymmetric partition: from rank 2's second data frame, every
			// write on its outbound links severs the connection until the
			// cut heals 300ms later. The severed peer fails, and the
			// survivor-replan must still produce the reference digest.
			name: "partition",
			plan: "partition:rank=2,after=2,heal=300ms",
		},
	}

	for _, shape := range []string{"square-corner", "column-based"} {
		for _, sc := range scenarios {
			shape, sc := shape, sc
			t.Run(fmt.Sprintf("%s/%s", sc.name, shape), func(t *testing.T) {
				t.Parallel()
				plan, err := faultinject.ParsePlan(sc.plan)
				if err != nil {
					t.Fatal(err)
				}
				s := newTestScheduler(t, func(c *Config) {
					c.MaxRecoveryAttempts = 2
					c.RecoveryBackoff = 10 * time.Millisecond
					c.Runner = &NetmpiRunner{
						OpTimeout:         1500 * time.Millisecond,
						HeartbeatInterval: 100 * time.Millisecond,
						WrapConn:          chaosPlanHook(plan),
					}
				})
				v, err := s.Submit(JobSpec{N: n, Shape: shape, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				got := waitTerminal(t, s, v.ID, 90*time.Second)
				if got.State != StateDone {
					t.Fatalf("job did not survive %s: attempts %d err %v", sc.name, got.Attempts, got.Err)
				}
				if got.Digest != refDigest {
					t.Fatalf("digest %q != fault-free %q under %s (attempts %d, recovered from %v)",
						got.Digest, refDigest, sc.name, got.Attempts, got.RecoveredFrom)
				}
				if sc.check != nil {
					m := s.Metrics()
					if m.Net == nil {
						t.Fatal("netmpi runner reported no transport metrics")
					}
					sc.check(t, got, m)
				}
			})
		}
	}
}

// TestGrayDegradedProactiveReplan pins the gray-failure promise: a rank
// whose links are up but crawling is condemned by RTT/goodput evidence and
// replaced by survivor-replan long before the hard failure detector
// (OpTimeout) could fire. The victim's outbound links are bandwidth-capped
// far below the job's needs — without the monitor the job would stall until
// OpTimeout; with it, the whole job (detect, condemn, replan, recompute)
// must finish well inside that deadline, with the verdict surfaced in the
// job view and the scheduler counters.
func TestGrayDegradedProactiveReplan(t *testing.T) {
	const n, seed, victim = 96, 5, 1
	opTimeout := 30 * time.Second

	ref := newTestScheduler(t, nil)
	vr, err := ref.Submit(JobSpec{N: n, Shape: "square-corner", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, ref, vr.ID, 60*time.Second)
	if want.State != StateDone {
		t.Fatalf("reference job: %v", want.Err)
	}

	// 2 KiB/s on the victim's outbound links: each broadcast frame costs
	// seconds of transit-queue debt, and the victim's heartbeats queue
	// behind it and arrive with RTT inflated to seconds. The link may be
	// choked from its very first frame — no healthy baseline ever forms,
	// so the detector needs the operator absolute bound, not just the
	// relative ratio.
	plan, err := faultinject.ParsePlan(fmt.Sprintf("slowlink:rank=%d,rate=2k", victim))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, func(c *Config) {
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = 10 * time.Millisecond
		c.Runner = &NetmpiRunner{
			OpTimeout:         opTimeout,
			HeartbeatInterval: 20 * time.Millisecond,
			WrapConn:          chaosPlanHook(plan),
			GrayFail: &grayfail.Config{
				MinSamples:      4,
				DegradeStreak:   2,
				HealStreak:      4,
				AbsoluteSeconds: 0.1,
			},
		}
	})
	start := time.Now()
	v, err := s.Submit(JobSpec{N: n, Shape: "square-corner", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 90*time.Second)
	elapsed := time.Since(start)
	if got.State != StateDone {
		t.Fatalf("job failed: attempts %d err %v", got.Attempts, got.Err)
	}
	if elapsed >= opTimeout {
		t.Fatalf("job took %v — not proactive (OpTimeout %v would have fired first)", elapsed, opTimeout)
	}
	if got.Attempts == 0 || len(got.DegradedPeers) == 0 {
		t.Fatalf("no gray recovery recorded: attempts %d degraded %v recovered %v",
			got.Attempts, got.DegradedPeers, got.RecoveredFrom)
	}
	if got.DegradedPeers[0] != victim {
		t.Fatalf("degraded peer %v, want %d", got.DegradedPeers, victim)
	}
	if got.Digest != want.Digest {
		t.Fatalf("digest %q != fault-free %q", got.Digest, want.Digest)
	}
	m := s.Metrics()
	if m.Counters.GrayRecoveries == 0 {
		t.Fatalf("GrayRecoveries = 0: %+v", m.Counters)
	}
	if m.Net == nil || m.Net.GrayDegraded == 0 {
		t.Fatal("runner did not count the gray condemnation")
	}
	ls := s.LoadSnapshot()
	if ls.GrayRecoveries == 0 {
		t.Fatal("LoadSnapshot does not surface gray recoveries — routers cannot avoid sick instances")
	}
}
