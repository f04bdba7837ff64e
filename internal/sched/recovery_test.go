package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/recover"
)

// chaosHook builds a WrapConn that kills one rank's connections at a fixed
// frame — one injector per job mesh, first attempt (epoch 0) only, exactly
// like summagen-serve's -chaos-kill-rank flag.
func chaosHook(killRank, killFrame int) func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
	var mu sync.Mutex
	injectors := map[string]*faultinject.Injector{}
	return func(jobID string, epoch, rank int) func(peer int, c net.Conn) net.Conn {
		if epoch != 0 {
			return nil
		}
		mu.Lock()
		inj := injectors[jobID]
		if inj == nil {
			inj = faultinject.New(faultinject.Plan{
				Rules: []faultinject.Rule{{
					Rank: killRank, Peer: -1, AfterFrames: killFrame, Action: faultinject.Close,
				}},
				SkipCount: netmpi.IsHeartbeatFrame,
			})
			injectors[jobID] = inj
		}
		mu.Unlock()
		return inj.WrapConn(rank)
	}
}

// TestChaosRecovery is the acceptance matrix: kill each rank at an early
// (mesh/epoch agreement) and a later (broadcast/compute) frame, across two
// partition shapes, and require every job to finish with the fault-free
// digest. Digest equality across the replanned layout is the strongest
// correctness check available — the engine's accumulation order is
// layout-independent, so recovered and fault-free runs must agree bitwise.
func TestChaosRecovery(t *testing.T) {
	const n, seed = 48, 5

	// Fault-free reference digest (layout-independent, so one reference
	// serves all shapes and all replanned survivor layouts).
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

	var mu sync.Mutex
	recoveredCases := 0

	// Frame 1 lands in mesh setup / epoch agreement; frame 2 lands in the
	// broadcast/compute stage (measured: every rank reaches 2 counted
	// frames on some connection under both shapes, and 1 always fires
	// because epoch agreement makes every rank write).
	for _, shape := range []string{"square-corner", "column-based"} {
		for victim := 0; victim < 3; victim++ {
			for _, frame := range []int{1, 2} {
				shape, victim, frame := shape, victim, frame
				name := fmt.Sprintf("%s/kill-rank%d/frame%d", shape, victim, frame)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					s := newTestScheduler(t, func(c *Config) {
						c.SmallN = -1
						c.MaxRecoveryAttempts = 2
						c.RecoveryBackoff = 10 * time.Millisecond
						c.Runner = &NetmpiRunner{
							OpTimeout:         1500 * time.Millisecond,
							HeartbeatInterval: 100 * time.Millisecond,
							WrapConn:          chaosHook(victim, frame),
						}
					})
					v, err := s.Submit(JobSpec{N: n, Shape: shape, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					got := waitTerminal(t, s, v.ID, 90*time.Second)
					if got.State != StateDone {
						t.Fatalf("job did not recover: state %v attempts %d err %v",
							got.State, got.Attempts, got.Err)
					}
					if got.Digest != refDigest {
						t.Fatalf("recovered digest %q != fault-free %q (attempts %d, recovered from %v)",
							got.Digest, refDigest, got.Attempts, got.RecoveredFrom)
					}
					m := s.Metrics()
					if m.Counters.CellsRedone != 0 {
						t.Fatalf("%d checkpointed cells were redone — restore-before-compute broken",
							m.Counters.CellsRedone)
					}
					if got.Attempts > 0 {
						// The kill fired: the casualty must be attributed to
						// the rank the chaos hook actually killed.
						if len(got.RecoveredFrom) == 0 || got.RecoveredFrom[0] != victim {
							t.Fatalf("recovered_from = %v, want leading %d", got.RecoveredFrom, victim)
						}
						if m.Counters.Recoveries == 0 || m.Counters.RecoveredJobs != 1 {
							t.Fatalf("counters = %+v, want recovery recorded", m.Counters)
						}
						if got.RecoveryTime <= 0 {
							t.Fatal("recovery time not recorded")
						}
						mu.Lock()
						recoveredCases++
						mu.Unlock()
					}
				})
			}
		}
	}
	t.Cleanup(func() {
		// Frame 1 always fires (every rank writes during epoch agreement),
		// so a matrix where nothing recovered means the chaos hook is dead.
		if recoveredCases == 0 {
			t.Fatal("no case exercised recovery — chaos injection is not firing")
		}
	})
}

// checkpointThenFailRunner completes the multiply (checkpointing every
// cell through opts.Checkpoint, exactly like a run whose ranks all finish
// stage 3) and then reports a casualty on the first attempt — the most
// checkpoint-favourable failure, and the only deterministic one: a real
// socket kill interrupts the broadcast stages, before cells exist.
type checkpointThenFailRunner struct {
	inner InprocRunner
	mu    sync.Mutex
	calls int
}

func (r *checkpointThenFailRunner) Name() string      { return "checkpoint-then-fail" }
func (r *checkpointThenFailRunner) Recoverable() bool { return true }
func (r *checkpointThenFailRunner) Run(jobID string, plan *Plan, a, b, c *matrix.Dense, opts RunOpts) (*core.Report, error) {
	rep, err := r.inner.Run(jobID, plan, a, b, c, opts)
	r.mu.Lock()
	first := r.calls == 0
	r.calls++
	r.mu.Unlock()
	if first {
		return nil, &netmpi.PeerFailedError{Rank: 2, Op: "bcast", Err: io.EOF}
	}
	return rep, err
}

// TestRecoveryRestoresCheckpointedCells pins the "never redo finished
// work" property directly: when epoch 0 checkpointed the full C before
// the casualty, the recovery attempt must restore every replanned cell
// and recompute none.
func TestRecoveryRestoresCheckpointedCells(t *testing.T) {
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = time.Millisecond
		c.Runner = &checkpointThenFailRunner{}
	})
	v, err := s.Submit(JobSpec{N: 64, Shape: "square-corner", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 30*time.Second)
	if got.State != StateDone {
		t.Fatalf("state %v err %v", got.State, got.Err)
	}
	if got.Attempts != 1 || len(got.RecoveredFrom) != 1 || got.RecoveredFrom[0] != 2 {
		t.Fatalf("attempts %d recovered from %v, want 1 attempt recovering from rank 2",
			got.Attempts, got.RecoveredFrom)
	}
	m := s.Metrics()
	if m.Counters.CellsRestored == 0 {
		t.Fatal("no cells restored from the checkpoint — recovery redid finished work")
	}
	// With the full C checkpointed, any DGEMM in the recovery attempt
	// would hit an already-covered cell and count as redone — zero here
	// proves epoch 1 restored everything and computed nothing.
	if m.Counters.CellsRedone != 0 {
		t.Fatalf("redone = %d, want 0 with a full checkpoint", m.Counters.CellsRedone)
	}
}

// TestRecoveryLateKillNoRedoneCells kills the busiest sender late under
// real sockets and requires that whatever work was checkpointed before the
// failure is never recomputed.
func TestRecoveryLateKillNoRedoneCells(t *testing.T) {
	// Kill rank 1 at its 3rd counted frame: under square-corner rank 1 is
	// the busiest sender, and with one broadcast per same-owner run it
	// sends 3 frames on one connection, so the failure lands on its last
	// broadcast, late in the broadcast stage.
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = 10 * time.Millisecond
		c.Runner = &NetmpiRunner{
			OpTimeout:         1500 * time.Millisecond,
			HeartbeatInterval: 100 * time.Millisecond,
			WrapConn:          chaosHook(1, 3),
		}
	})
	v, err := s.Submit(JobSpec{N: 64, Shape: "square-corner", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 90*time.Second)
	if got.State != StateDone {
		t.Fatalf("state %v err %v", got.State, got.Err)
	}
	m := s.Metrics()
	if got.Attempts == 0 {
		t.Skip("kill frame never reached on this interleaving")
	}
	if m.Counters.CellsRedone != 0 {
		t.Fatalf("%d cells redone, want 0", m.Counters.CellsRedone)
	}
	t.Logf("restored %d, recomputed %d", m.Counters.CellsRestored, m.Counters.CellsRecomputed)
}

// failingRunner always reports the same casualty — for exercising the
// recovery loop's policy without sockets.
type failingRunner struct {
	mu    sync.Mutex
	calls int
}

func (r *failingRunner) Name() string      { return "failing" }
func (r *failingRunner) Recoverable() bool { return true }
func (r *failingRunner) Run(string, *Plan, *matrix.Dense, *matrix.Dense, *matrix.Dense, RunOpts) (*core.Report, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	return nil, &netmpi.PeerFailedError{Rank: 1, Op: "bcast", Err: io.EOF}
}

func (r *failingRunner) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// TestRecoveryAttemptsBounded: a casualty on every attempt exhausts the
// budget and fails the job with the final attributed error — no infinite
// replan loop.
func TestRecoveryAttemptsBounded(t *testing.T) {
	runner := &failingRunner{}
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = time.Millisecond
		c.Runner = runner
	})
	v, err := s.Submit(JobSpec{N: 24, Shape: "square-corner"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 30*time.Second)
	if got.State != StateFailed {
		t.Fatalf("state = %v, want failed after budget exhaustion", got.State)
	}
	var pf *netmpi.PeerFailedError
	if !errors.As(got.Err, &pf) {
		t.Fatalf("terminal error %T, want rank-attributed", got.Err)
	}
	// 1 original + 2 recovery attempts.
	if runner.Calls() != 3 {
		t.Fatalf("runner ran %d times, want 3", runner.Calls())
	}
	if got.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", got.Attempts)
	}
	m := s.Metrics()
	if m.Counters.RecoveryFailures != 1 || m.Counters.Recoveries != 2 {
		t.Fatalf("counters = %+v", m.Counters)
	}
}

// TestDrainAbortsRecoveryBackoff: a job parked in recovery backoff must
// fail promptly when a drain begins, instead of holding the drain hostage
// for the full backoff.
func TestDrainAbortsRecoveryBackoff(t *testing.T) {
	runner := &failingRunner{}
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.MaxRecoveryAttempts = 3
		c.RecoveryBackoff = time.Minute // way past the test budget
		c.Runner = runner
	})
	v, err := s.Submit(JobSpec{N: 24, Shape: "square-corner"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to enter its first recovery backoff.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runner.Calls() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let it reach the pause
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v — recovery backoff not aborted", elapsed)
	}
	got, _ := s.Get(v.ID)
	if got.State != StateFailed {
		t.Fatalf("job state %v, want failed (recovery abandoned)", got.State)
	}
}

// timeoutErr mimics a net.Error deadline expiry.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

// TestPickRootCauseDeterministic: under simultaneous failures the runner
// must accuse the same victim regardless of the order ranks reported — the
// recovery loop drops exactly one rank per attempt and two runs of the
// same casualty pattern must converge on the same survivor set.
func TestPickRootCauseDeterministic(t *testing.T) {
	pf := func(rank int, cause error) error {
		return &netmpi.PeerFailedError{Rank: rank, Op: "bcast", Err: cause}
	}
	cases := []struct {
		name string
		errs []error
		want int // accused rank; -1 = expect nil error
	}{
		{"all healthy", []error{nil, nil, nil}, -1},
		{"direct evidence beats timeout", []error{pf(0, timeoutErr{}), pf(2, io.EOF), nil}, 2},
		{"reset is direct evidence too", []error{pf(2, io.ErrUnexpectedEOF), pf(0, timeoutErr{})}, 2},
		{"simultaneous EOFs accuse lowest rank", []error{pf(2, io.EOF), pf(1, io.EOF), nil}, 1},
		{"simultaneous timeouts accuse lowest rank", []error{pf(2, timeoutErr{}), pf(1, timeoutErr{}), pf(0, timeoutErr{})}, 0},
		{"timeout beats local close", []error{pf(2, net.ErrClosed), pf(0, timeoutErr{})}, 0},
		{"local close still attributed", []error{pf(1, net.ErrClosed), nil, nil}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			permute(tc.errs, func(perm []error) {
				got := pickRootCause(perm)
				if tc.want == -1 {
					if got != nil {
						t.Fatalf("perm %v: got %v, want nil", perm, got)
					}
					return
				}
				var pfe *netmpi.PeerFailedError
				if !errors.As(got, &pfe) {
					t.Fatalf("perm %v: got %T, want PeerFailedError", perm, got)
				}
				if pfe.Rank != tc.want {
					t.Fatalf("perm %v: accused rank %d, want %d", perm, pfe.Rank, tc.want)
				}
			})
		})
	}
}

// permute calls fn with every permutation of xs.
func permute(xs []error, fn func([]error)) {
	var rec func(k int)
	buf := append([]error(nil), xs...)
	rec = func(k int) {
		if k == len(buf) {
			fn(append([]error(nil), buf...))
			return
		}
		for i := k; i < len(buf); i++ {
			buf[k], buf[i] = buf[i], buf[k]
			rec(k + 1)
			buf[k], buf[i] = buf[i], buf[k]
		}
	}
	rec(0)
}

// TestRecoveryFileStoreSurvivesBindingReload: the scheduler configured
// with a FileStore checkpoints through job recovery exactly like the
// default MemStore (integration of sched + recover.FileStore).
func TestRecoveryFileStoreSurvivesBindingReload(t *testing.T) {
	store, err := recover.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = 10 * time.Millisecond
		c.Checkpoint = store
		c.Runner = &NetmpiRunner{
			OpTimeout:         1500 * time.Millisecond,
			HeartbeatInterval: 100 * time.Millisecond,
			WrapConn:          chaosHook(1, 3),
		}
	})
	v, err := s.Submit(JobSpec{N: 48, Shape: "square-corner", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 90*time.Second)
	if got.State != StateDone {
		t.Fatalf("state %v err %v", got.State, got.Err)
	}
	// Terminal jobs clear their checkpoints (stored under the job's
	// incarnation-scoped key, not the raw job id).
	s.mu.Lock()
	key := s.jobs[v.ID].ckptKey
	s.mu.Unlock()
	cells, err := store.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("%d checkpoint cells leaked after terminal state", len(cells))
	}
}

// TestCheckpointKeyUniquePerIncarnation pins the keying scheme: job IDs
// are a per-process counter that restarts after a crash, so the store key
// must differ across incarnations (nonce) while staying stable within one.
func TestCheckpointKeyUniquePerIncarnation(t *testing.T) {
	spec := JobSpec{N: 48, Shape: "square-corner", Seed: 5}
	k1 := checkpointKey("incarnation-a", "j-000001", spec)
	k2 := checkpointKey("incarnation-b", "j-000001", spec)
	if k1 == k2 {
		t.Fatalf("same key %q for the same job id in different incarnations", k1)
	}
	if again := checkpointKey("incarnation-a", "j-000001", spec); again != k1 {
		t.Fatalf("key not stable within an incarnation: %q then %q", k1, again)
	}
	if k1 == "j-000001" || k2 == "j-000001" {
		t.Fatal("key must not collapse to the raw job id")
	}
	s1 := newTestScheduler(t, nil)
	s2 := newTestScheduler(t, nil)
	if s1.ckptNonce == s2.ckptNonce {
		t.Fatalf("two scheduler incarnations share nonce %q", s1.ckptNonce)
	}
}

// TestStaleCheckpointFromPriorIncarnationIgnored is the crash-restart
// regression: a previous process left cells in the shared checkpoint
// directory under a key derived from job id j-000001, the restarted
// process hands out j-000001 again, and the new job must NOT restore the
// stale (wrong) cells. The poison covers all of C with zeros, so any
// restore from it fails both the digest and the serial verification.
func TestStaleCheckpointFromPriorIncarnationIgnored(t *testing.T) {
	const n, seed = 48, 9
	store, err := recover.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// What the previous incarnation would have left behind, under every
	// plausible legacy key shape for its first job.
	spec := JobSpec{N: n, Shape: "square-corner", Seed: seed, Verify: true}
	poison := recover.Cell{Row: 0, Col: 0, H: n, W: n, Data: make([]float64, n*n)}
	for _, staleKey := range []string{
		"j-000001", // the pre-fix key: the raw, reused job id
		checkpointKey("dead-incarnation", "j-000001", spec),
	} {
		if err := store.Save(staleKey, poison); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.RecoveryBackoff = time.Millisecond
		c.Checkpoint = store
		c.Runner = &checkpointThenFailRunner{}
	})
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 60*time.Second)
	if got.State != StateDone {
		t.Fatalf("state %v err %v", got.State, got.Err)
	}
	if !got.Verified {
		t.Fatal("result not verified — stale checkpoint data leaked into C")
	}
}

// blockUntilCtxFailRunner parks every run on the per-job context, then
// reports a casualty — the shape of an orphaned run whose job timed out.
type blockUntilCtxFailRunner struct {
	mu    sync.Mutex
	calls int
}

func (r *blockUntilCtxFailRunner) Name() string      { return "block-until-ctx" }
func (r *blockUntilCtxFailRunner) Recoverable() bool { return true }
func (r *blockUntilCtxFailRunner) Run(_ string, _ *Plan, _, _, _ *matrix.Dense, opts RunOpts) (*core.Report, error) {
	r.mu.Lock()
	r.calls++
	r.mu.Unlock()
	<-opts.Ctx.Done()
	return nil, &netmpi.PeerFailedError{Rank: 1, Op: "bcast", Err: io.EOF}
}

func (r *blockUntilCtxFailRunner) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// TestJobTimeoutStopsRecoveryLoop: once JobTimeout reports the job
// terminal, the orphaned runWithRecovery goroutine must stand down — no
// further attempts, and no post-hoc drift of the job's attempts,
// recovered_from, or the recovery counters.
func TestJobTimeoutStopsRecoveryLoop(t *testing.T) {
	runner := &blockUntilCtxFailRunner{}
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.JobTimeout = 50 * time.Millisecond
		c.MaxRecoveryAttempts = 3
		c.RecoveryBackoff = time.Millisecond
		c.Runner = runner
	})
	v, err := s.Submit(JobSpec{N: 24, Shape: "square-corner"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 30*time.Second)
	if got.State != StateFailed || !errors.Is(got.Err, ErrJobTimeout) {
		t.Fatalf("state %v err %v, want timeout failure", got.State, got.Err)
	}
	// Give the orphaned goroutine time to misbehave if it were going to:
	// without the terminal-state guard it would book a recovery attempt
	// and re-run the (instantly failing) runner within milliseconds.
	time.Sleep(200 * time.Millisecond)
	if calls := runner.Calls(); calls != 1 {
		t.Fatalf("runner ran %d times after timeout, want 1 (no post-terminal retries)", calls)
	}
	after, _ := s.Get(v.ID)
	if after.Attempts != 0 || len(after.RecoveredFrom) != 0 || after.RecoveryTime != 0 {
		t.Fatalf("job status drifted after terminal state: %+v", after)
	}
	m := s.Metrics()
	if m.Counters.Recoveries != 0 || m.Counters.RecoveredJobs != 0 || m.Counters.RecoveryFailures != 0 {
		t.Fatalf("recovery counters drifted after terminal state: %+v", m.Counters)
	}
	if m.Counters.TimedOut != 1 {
		t.Fatalf("timed out = %d, want 1", m.Counters.TimedOut)
	}
}

// countingStore wraps a CheckpointStore and counts Save calls.
type countingStore struct {
	recover.CheckpointStore
	mu    sync.Mutex
	saves int
}

func (cs *countingStore) Save(jobID string, cell recover.Cell) error {
	cs.mu.Lock()
	cs.saves++
	cs.mu.Unlock()
	return cs.CheckpointStore.Save(jobID, cell)
}

func (cs *countingStore) Saves() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.saves
}

// TestInprocSkipsCheckpointOverhead: the inproc runtime can never produce
// a rank-attributed failure, so even with recovery enabled its jobs must
// not pay checkpoint overhead (no Save per cell, no coverage scans).
func TestInprocSkipsCheckpointOverhead(t *testing.T) {
	store := &countingStore{CheckpointStore: recover.NewMemStore()}
	s := newTestScheduler(t, func(c *Config) {
		c.SmallN = -1
		c.MaxRecoveryAttempts = 2
		c.Checkpoint = store
		c.Runner = &InprocRunner{}
	})
	v, err := s.Submit(JobSpec{N: 48, Shape: "square-corner", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, s, v.ID, 30*time.Second)
	if got.State != StateDone {
		t.Fatalf("state %v err %v", got.State, got.Err)
	}
	if n := store.Saves(); n != 0 {
		t.Fatalf("inproc job checkpointed %d cells; recovery can never consume them", n)
	}
}
