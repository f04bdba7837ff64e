package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/netmpi"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/slab"
)

// The tests in this file are about what recycling WA and WB must never
// change: results. They live outside package core because they drive the
// engine over both runtimes (netmpi imports core) and through the scheduler.

// dialMesh dials a p-rank loopback TCP mesh, closed when the test ends.
func dialMesh(t *testing.T, p int, mutate func(rank int, cfg *netmpi.Config)) []*netmpi.Endpoint {
	t.Helper()
	listeners := make([]net.Listener, p)
	addrs := make([]string, p)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = ln, ln.Addr().String()
	}
	eps := make([]*netmpi.Endpoint, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := netmpi.Config{Rank: r, Addrs: addrs, Listener: listeners[r], OpTimeout: 20 * time.Second}
			if mutate != nil {
				mutate(r, &cfg)
			}
			eps[r], errs[r] = netmpi.Dial(cfg)
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dial rank %d: %v", r, err)
		}
	}
	return eps
}

// runRanks runs one rank of C = A·B per endpoint, all sharing a, b and c
// (ranks write disjoint cells of c), and returns the per-rank errors.
func runRanks(eps []*netmpi.Endpoint, cfg core.Config, a, b, c *matrix.Dense) []error {
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for r, ep := range eps {
		wg.Add(1)
		go func(r int, ep *netmpi.Endpoint) {
			defer wg.Done()
			errs[r] = core.RunRank(ep.Proc(), cfg, a, b, c)
		}(r, ep)
	}
	wg.Wait()
	return errs
}

// engine is one way to run a multiply: the sequential schedule on one of the
// two runtimes.
type engine struct {
	name   string
	tcp    bool
	meshes map[int][]*netmpi.Endpoint // warm meshes by rank count
}

func engines() []*engine {
	return []*engine{
		{name: "inproc/sequential"},
		{name: "netmpi/sequential", tcp: true},
	}
}

func (e *engine) multiply(t *testing.T, l *partition.Layout, a, b, c *matrix.Dense) error {
	cfg := core.Config{Layout: l}
	if !e.tcp {
		_, err := core.Multiply(a, b, c, cfg)
		return err
	}
	if e.meshes == nil {
		e.meshes = map[int][]*netmpi.Endpoint{}
	}
	if e.meshes[l.P] == nil {
		e.meshes[l.P] = dialMesh(t, l.P, nil)
	}
	for _, err := range runRanks(e.meshes[l.P], cfg, a, b, c) {
		if err != nil {
			return err
		}
	}
	return nil
}

func shapeLayout(t testing.TB, shape partition.Shape, n int, speeds []float64) *partition.Layout {
	t.Helper()
	areas, err := balance.Proportional(n*n, speeds)
	if err != nil {
		t.Fatal(err)
	}
	l, err := partition.Build(shape, n, areas)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestPoisonedSlabsArbitraryLayouts is TestQuickArbitraryLayouts with every
// recycled slab NaN-filled first, on both runtimes: an
// element of WA or WB that stages 1–2 leave unwritten and a DGEMM reads
// turns the product into NaN. The SUMMA and block-cyclic baselines are
// inputs too: partition.BlockCyclic layouts of up to six ranks, ragged
// blocks included.
func TestPoisonedSlabsArbitraryLayouts(t *testing.T) {
	poisoned := core.PoisonRecycledSlabs(t)
	for _, e := range engines() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			matches := func(l *partition.Layout, rng *rand.Rand) bool {
				// C starts NaN too: every element must be overwritten.
				a, b, c := matrix.Random(l.N, l.N, rng), matrix.Random(l.N, l.N, rng), matrix.Constant(l.N, l.N, math.NaN())
				if err := e.multiply(t, l, a, b, c); err != nil {
					t.Logf("multiply failed: %v", err)
					return false
				}
				return matrix.EqualApprox(c, core.RefMultiply(a, b), 1e-9)
			}
			random := func(seed int64, n8, p8 uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				p := int(p8%4) + 1
				n := int(n8%30) + p*3 + 4
				return matches(core.RandomLayout(rng, n, p), rng)
			}
			cyclic := func(seed int64, pr8, pc8, rb8, cb8, n8 uint8) bool {
				pr := int(pr8%6) + 1
				pc := int(pc8)%(6/pr) + 1
				rbs, cbs := pr+int(rb8%6), pc+int(cb8%6) // one block per grid line is SUMMA
				n := max(rbs, cbs) + int(n8%30)
				l, err := partition.BlockCyclic(n, pr, pc, rbs, cbs)
				if err != nil {
					t.Logf("BlockCyclic: %v", err)
					return false
				}
				return matches(l, rand.New(rand.NewSource(seed)))
			}
			for _, f := range []any{random, cyclic} {
				if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if poisoned.Count() == 0 {
		t.Fatal("no slab was ever recycled: the test covered nothing")
	}
}

// TestPoisonedSlabsAllShapes is the all-shapes reference test under the same
// regime.
func TestPoisonedSlabsAllShapes(t *testing.T) {
	poisoned := core.PoisonRecycledSlabs(t)
	const n = 48
	rng := rand.New(rand.NewSource(1))
	a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	want := core.RefMultiply(a, b)
	for _, e := range engines() {
		for _, shape := range partition.Shapes {
			l := shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9})
			for round := 0; round < 2; round++ { // the second round runs on the first one's slabs
				c := matrix.New(n, n)
				if err := e.multiply(t, l, a, b, c); err != nil {
					t.Fatalf("%s %v: %v", e.name, shape, err)
				}
				if !matrix.EqualApprox(c, want, 1e-10) {
					t.Fatalf("%s %v round %d: result mismatch, max diff %g", e.name, shape, round, matrix.MaxAbsDiff(c, want))
				}
			}
		}
	}
	if poisoned.Count() == 0 {
		t.Fatal("no slab was ever recycled: the test covered nothing")
	}
}

// schedDigest runs one job through a scheduler and returns its digest.
func schedDigest(t *testing.T, runner sched.Runner, spec sched.JobSpec) string {
	t.Helper()
	s, err := sched.New(sched.Config{
		Planner: &sched.Planner{Platform: device.HCLServer1()},
		Runner:  runner,
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got, _ := s.Get(v.ID); got.State.Terminal() {
			if got.State != sched.StateDone || got.Digest == "" {
				t.Fatalf("job %v: state %v, err %v, digest %q", spec, got.State, got.Err, got.Digest)
			}
			return got.Digest
		}
	}
	t.Fatalf("job %v never finished", spec)
	return ""
}

// TestPoisonedSlabsSchedDigests: the scheduler's digests — the identity the
// observability, recovery and chaos tests all compare — are the same with
// poisoned recycled slabs as without, for every plan shape, on both runners.
func TestPoisonedSlabsSchedDigests(t *testing.T) {
	shapes := []string{"square-corner", "square-rectangle", "block-rectangle", "1d-rectangle", "column-based"}
	ref := map[string]string{}
	for _, shape := range shapes {
		ref[shape] = schedDigest(t, &sched.InprocRunner{}, sched.JobSpec{N: 64, Shape: shape, Seed: 9})
	}
	poisoned := core.PoisonRecycledSlabs(t)
	for _, shape := range shapes {
		for _, tc := range []struct {
			name   string
			runner sched.Runner
		}{
			{"inproc", &sched.InprocRunner{}},
			{"netmpi", &sched.NetmpiRunner{OpTimeout: 10 * time.Second}},
		} {
			if got := schedDigest(t, tc.runner, sched.JobSpec{N: 64, Shape: shape, Seed: 9}); got != ref[shape] {
				t.Errorf("%s %s: digest %q under poisoned slabs, %q without", shape, tc.name, got, ref[shape])
			}
		}
	}
	if poisoned.Count() == 0 {
		t.Fatal("no slab was ever recycled: the test covered nothing")
	}
}

// multiplyJob is one (layout, inputs) pair of the concurrency and
// abort-and-reuse tests.
type multiplyJob struct {
	l    *partition.Layout
	a, b *matrix.Dense
}

// mixedJobs builds multiplies of several sizes and shapes, so that their
// working matrices fall into different and into shared slab size classes.
func mixedJobs(t testing.TB) []multiplyJob {
	rng := rand.New(rand.NewSource(77))
	var jobs []multiplyJob
	for i, n := range []int{33, 48, 64, 96, 47, 128} {
		shape := partition.Shapes[i%len(partition.Shapes)]
		jobs = append(jobs, multiplyJob{
			l: shapeLayout(t, shape, n, []float64{1.0, 2.0, 0.9}),
			a: matrix.Random(n, n, rng),
			b: matrix.Random(n, n, rng),
		})
	}
	return jobs
}

func (j multiplyJob) run(t testing.TB) *matrix.Dense {
	c := matrix.New(j.l.N, j.l.N)
	if _, err := core.Multiply(j.a, j.b, c, core.Config{Layout: j.l}); err != nil {
		t.Errorf("N=%d: %v", j.l.N, err)
	}
	return c
}

func bitsEqual(x, y *matrix.Dense) bool {
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			return false
		}
	}
	return len(x.Data) == len(y.Data)
}

// TestConcurrentMultipliesShareSlabs: eight goroutines run interleaved
// multiplies of mixed N and layout, so slabs cross sizes, ranks and
// multiplies; every C is bit-for-bit its first serial result. Then eight
// multiplies run at once on one layout, so they share its compiled schedule:
// each C digests as the single-rank DGEMM does.
// Meant for -race.
func TestConcurrentMultipliesShareSlabs(t *testing.T) {
	core.PoisonRecycledSlabs(t)
	jobs := mixedJobs(t)
	want := make([]*matrix.Dense, len(jobs))
	for i, j := range jobs {
		want[i] = j.run(t)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(jobs); k++ {
				i := (g + k*(g%3+1)) % len(jobs) // each goroutine walks the jobs in its own order
				if got := jobs[i].run(t); !bitsEqual(got, want[i]) {
					t.Errorf("goroutine %d: N=%d differs from its serial result", g, jobs[i].l.N)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	one := jobs[len(jobs)-1]
	single := matrix.New(one.l.N, one.l.N)
	if err := blas.Dgemm(one.l.N, one.l.N, one.l.N, 1, one.a.Data, one.a.Stride, one.b.Data, one.b.Stride, 0, single.Data, single.Stride); err != nil {
		t.Fatal(err)
	}
	digest := matrix.Digest(single)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := matrix.Digest(one.run(t)); got != digest {
				t.Errorf("concurrent multiply %d on one layout: digest %s, single-rank DGEMM %s", g, got, digest)
			}
		}()
	}
	wg.Wait()
}

const freshDigestsEnv = "SUMMAGEN_CORE_TEST_FRESH_DIGESTS"

func digests(t testing.TB, jobs []multiplyJob) string {
	var sb strings.Builder
	for _, j := range jobs {
		fmt.Fprintf(&sb, "%d:%s\n", j.l.N, matrix.Digest(j.run(t)))
	}
	return sb.String()
}

// drawable returns every recycled buffer the free list would hand out for
// a request of n elements: it draws until Get has to allocate, then puts
// everything back.
func drawable(r *core.ReuseLog, n int) map[*float64]bool {
	got := map[*float64]bool{}
	var drawn [][]float64
	for {
		before := r.Count()
		s := slab.Get(n)
		drawn = append(drawn, s)
		if r.Count() == before {
			break // freshly allocated: nothing recycled is left for n
		}
		got[&s[:1][0]] = true
	}
	for _, s := range drawn {
		slab.Put(s)
	}
	return got
}

// expectReturned fails the test unless every buffer of a length in lens
// handed out since arm is back in the free list, and at least least of them
// were handed out. (Which of a multiply's Gets find a recycled buffer depends
// on how the ranks interleave, so least only proves the check saw some.)
func expectReturned(t *testing.T, r *core.ReuseLog, lens map[int]bool, least int, what string) {
	t.Helper()
	seen, back := 0, map[int]map[*float64]bool{}
	for buf, n := range r.Disarm() {
		if !lens[n] {
			continue
		}
		if back[n] == nil {
			back[n] = drawable(r, n)
		}
		if !back[n][buf] {
			t.Fatalf("%s: a %d-element working matrix never went back to the free list", what, n)
		}
		seen++
	}
	if seen < least {
		t.Fatalf("%s: only %d recycled working matrices seen, want at least %d", what, seen, least)
	}
}

// TestAbortThenReuse: ranks fail mid-run — in-process (a failing kernel) and
// over TCP (a rank's connections cut at a seeded frame). Every rank whose
// multiply returns an error puts its WA and WB back, so the free list hands
// them out again; and afterwards the same process, drawing on that poisoned
// recycled memory, computes exactly what a fresh process computes.
func TestAbortThenReuse(t *testing.T) {
	jobs := mixedJobs(t)
	if os.Getenv(freshDigestsEnv) != "" {
		fmt.Printf("fresh-digests<<\n%s>>\n", digests(t, jobs))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestAbortThenReuse$")
	cmd.Env = append(os.Environ(), freshDigestsEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("fresh process: %v\n%s", err, out)
	}
	_, rest, ok := strings.Cut(string(out), "fresh-digests<<\n")
	fresh, _, ok2 := strings.Cut(rest, ">>\n")
	if !ok || !ok2 {
		t.Fatalf("fresh process printed no digests:\n%s", out)
	}
	freshLines := strings.Split(fresh, "\n")

	// Every rank of a square-corner layout sends within its first two
	// frames, so the seeded kill always lands mid-broadcast.
	kill := multiplyJob{l: shapeLayout(t, partition.SquareCorner, 48, []float64{1, 2, 0.9}), a: jobs[1].a, b: jobs[1].b}
	killLens, jobLens := core.WorkingMatrixLens(kill.l), map[int]bool{}
	for _, j := range jobs {
		for n := range core.WorkingMatrixLens(j.l) {
			jobLens[n] = true
		}
	}
	reuse := core.PoisonRecycledSlabs(t)
	clean := dialMesh(t, 3, nil)
	for round := 0; round < 3; round++ {
		reuse.Arm()
		for i, j := range jobs {
			c := matrix.New(j.l.N, j.l.N)
			var err error
			core.FailComputeStage(func() { _, err = core.Multiply(j.a, j.b, c, core.Config{Layout: j.l}) })
			if err == nil || !strings.Contains(err.Error(), "compute stage") {
				t.Fatalf("N=%d: a failing kernel must fail the compute stage, got %v", j.l.N, err)
			}
			// The failed run leaves the shared-memory executor nothing to
			// carry over; the next multiply of the same layout, on its
			// recycled WA and WB, still gives the fresh process's digest.
			if got := fmt.Sprintf("%d:%s", j.l.N, matrix.Digest(j.run(t))); got != freshLines[i] {
				t.Fatalf("round %d: multiply after a failed one gives %s, a fresh process %s", round, got, freshLines[i])
			}
		}
		least := 0 // round 0 draws fresh slabs; later rounds reuse the digest runs'
		if round > 0 {
			least = 1
		}
		expectReturned(t, reuse, jobLens, least, fmt.Sprintf("round %d, failing kernel", round))

		// A clean run of the kill layout first, so that the failing one
		// draws its WA and WB from the free list and the log sees them.
		for r, err := range runRanks(clean, core.Config{Layout: kill.l}, kill.a, kill.b, matrix.New(kill.l.N, kill.l.N)) {
			if err != nil {
				t.Fatalf("round %d: clean rank %d: %v", round, r, err)
			}
		}
		reuse.Arm()
		plan, victim := faultinject.RandomKillPlan(int64(round+1), 3, 2)
		plan.SkipCount = netmpi.IsHeartbeatFrame
		inj := faultinject.New(plan)
		eps := dialMesh(t, 3, func(rank int, cfg *netmpi.Config) {
			cfg.OpTimeout = time.Second
			cfg.HeartbeatInterval = 100 * time.Millisecond
			cfg.WrapConn = inj.WrapConn(rank)
		})
		errs := runRanks(eps, core.Config{Layout: kill.l}, kill.a, kill.b, matrix.New(kill.l.N, kill.l.N))
		if errs[victim] == nil {
			t.Fatalf("round %d: killed rank %d finished its multiply", round, victim)
		}
		expectReturned(t, reuse, killLens, 1, fmt.Sprintf("round %d, killed mesh", round))

		if got := digests(t, jobs); got != fresh {
			t.Fatalf("round %d: digests after aborted runs differ from a fresh process's\n got:\n%s want:\n%s", round, got, fresh)
		}
	}
}
