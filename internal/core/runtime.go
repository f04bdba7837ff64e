package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"repro/internal/matrix"
	"repro/internal/slab"
)

// The engine is transport-generic: it executes over any runtime that
// provides ranks and keyed broadcasts over a band's members — shared memory
// (Multiply) or the distributed TCP runtime internal/netmpi (MultiplyOn over
// a process's endpoints), the paper's future-work setting of
// distributed-memory nodes. A runtime keeps no communicators: the compiled
// schedule names each broadcast's members and its key. Either way the ranks
// of one process run on the executor below. Simulate needs no runtime: it
// walks the compiled schedule itself.
//
// Error contract: a runtime must never let a dead or failed peer block a
// collective forever. When a peer is declared failed, in-flight and
// subsequent collectives return an error (for internal/netmpi a
// *netmpi.PeerFailedError). The engine wraps such errors with the failing
// stage and returns them from Multiply, MultiplyOn and RunRank, so callers
// see a clean, rank-attributable failure instead of a deadlock. Multiply and
// MultiplyOn join every failed rank's error, each naming its rank.

// Proc is one rank's handle inside a runtime.
type Proc interface {
	// Rank returns this rank's id; Size the world size.
	Rank() int
	Size() int
	// BeginStage begins a stage of n broadcasts, the stage's count over the
	// whole schedule, and returns its first key: the stage's broadcast i
	// (bandOp.key) is keyed first+i. Every rank of the world calls it with
	// the same n at the start of each stage, whether or not it is a member
	// of any of the stage's broadcasts, so a runtime can key a broadcast's
	// messages by its place in the schedule rather than by when it is
	// called: a root that posts its panel early (PostPanel) cannot take
	// another broadcast's key. It also starts the stage's post budget.
	BeginStage(n int) (first int)
	// BcastPanel broadcasts the dst.Rows×dst.Cols panel src of members[root]
	// into every member's dst, the root's own included, under the key of
	// the stage's broadcast; members lists the band's world ranks in
	// ascending order, this rank among them. Every member writes its dst
	// with dst.Put, so the engine chooses the form its working matrices take
	// (it receives straight into the DGEMM's packed strips) and the runtime
	// never stages a panel for it. How the elements travel is the runtime's
	// business (in-process, each member Puts straight out of the shared
	// view; the TCP runtime Puts src into the root's dst and sends dst's own
	// strips, which receivers read straight into theirs). src must stay
	// unwritten until the multiply returns — the engine only ever passes
	// views of its read-only A and B. It returns an error — never hangs —
	// when a member has been declared failed. A member whose dimensions
	// disagree with the root's is a bug the runtime reports (netmpi with a
	// *LengthMismatchError) instead of copying what fits.
	BcastPanel(src matrix.Dense, dst matrix.Dest, members []int, root, key int) error
	// PostPanel is the post pass's call (see assembleBands) for the
	// broadcast BcastPanel(src, dst, members, root, key) would run, made in
	// schedule order before any BcastPanel of the stage. It reports whether
	// the pass may go on past the broadcast. On the root, it may only once
	// the runtime has run the whole broadcast, which it does only if no
	// member can make it wait. On another member PostPanel runs nothing —
	// its receive is left to BcastPanel — and reports whether the member
	// sends nothing in the broadcast, so that what this rank posts later
	// cannot overtake a frame it forwards.
	PostPanel(src matrix.Dense, dst matrix.Dest, members []int, root, key int) (bool, error)
	// Compute adds d seconds of local computation of `flops`
	// floating-point operations, just finished, to the runtime's own
	// compute total (netmpi's Breakdown). The shared-memory ranks keep
	// none: Multiply and MultiplyOn record every op on the Report's
	// Timeline themselves.
	Compute(d, flops float64, label string)
}

// --- The in-process executor behind Multiply and MultiplyOn ---

// shmRank is one rank of an in-process multiply. The ranks share A and B, so
// a broadcast is each member's own copy out of the shared operand: no rank
// ever waits for another, keys go unused, and PostPanel runs nothing: with no
// wait, there is nothing to overlap. A shmRank holds no state, so a
// schedule's ranks serve every multiply.
type shmRank struct{ rank, size int }

func (r *shmRank) Rank() int                      { return r.rank }
func (r *shmRank) Size() int                      { return r.size }
func (*shmRank) BeginStage(int) int               { return 0 }
func (*shmRank) Compute(float64, float64, string) {}

func (*shmRank) BcastPanel(src matrix.Dense, dst matrix.Dest, _ []int, _, _ int) error {
	return dst.Put(&src)
}

func (*shmRank) PostPanel(matrix.Dense, matrix.Dest, []int, int, int) (bool, error) {
	return false, nil
}

// shmWorld returns the p ranks of an in-process world.
func shmWorld(p int) []Proc {
	ranks, procs := make([]shmRank, p), make([]Proc, p)
	for r := range ranks {
		ranks[r] = shmRank{rank: r, size: p}
		procs[r] = &ranks[r]
	}
	return procs
}

// rankRun is one rank of a runShared call: its Proc, its WA and WB, and
// what it returned.
type rankRun struct {
	p      Proc
	wa, wb []float64
	err    error
}

// runShared runs main as each of procs, procs[0] on the calling goroutine,
// and returns once all have returned, their errors (a panic is one) joined
// in procs order. Every rank's WA and WB are drawn first, in procs order:
// drawn by the ranks, in an order that varied between runs, they kept
// missing the slab free list.
func runShared(s *schedule, procs []Proc, main func(p Proc, wa, wb []float64) error) error {
	ranks := make([]rankRun, len(procs))
	for i, p := range procs {
		waLen, wbLen := s.ranks[p.Rank()].workLens(s.layout.N)
		ranks[i] = rankRun{p: p, wa: slab.Get(waLen), wb: slab.Get(wbLen)}
	}
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for i := 1; i < len(ranks); i++ {
		go ranks[i].run(main, &wg)
	}
	ranks[0].run(main, &wg)
	wg.Wait()
	var errs []error
	for i := range ranks {
		slab.Put(ranks[i].wa)
		slab.Put(ranks[i].wb)
		if ranks[i].err != nil {
			errs = append(errs, ranks[i].err)
		}
	}
	return errors.Join(errs...)
}

// run runs main as the rank and keeps its error, or its panic as one.
func (r *rankRun) run(main func(p Proc, wa, wb []float64) error, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("core: rank %d panicked: %v\n%s", r.p.Rank(), v, debug.Stack())
		}
	}()
	if err := main(r.p, r.wa, r.wb); err != nil {
		r.err = fmt.Errorf("core: rank %d: %w", r.p.Rank(), err)
	}
}
