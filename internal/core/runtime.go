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
// provides ranks, sub-communicators and broadcasts — shared memory
// (Multiply) or the distributed TCP runtime internal/netmpi (MultiplyOn over
// a process's endpoints), the paper's future-work setting of
// distributed-memory nodes. Either way the ranks of one process run on the
// executor below. Simulate needs no runtime: it walks the compiled schedule
// itself.
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
	// Split collectively creates (or reuses) the communicator over the
	// given ascending world ranks; the caller must be a member, and
	// ranks[i] is communicator rank i.
	Split(ranks []int) Comm
	// Compute adds d seconds of local computation of `flops`
	// floating-point operations, just finished, to the runtime's own
	// compute total (netmpi's Breakdown). The shared-memory ranks keep
	// none: Multiply and MultiplyOn record every op on the Report's
	// Timeline themselves.
	Compute(d, flops float64, label string)
}

// Comm is a communicator over a subset of ranks.
type Comm interface {
	// Reserve begins the communicator's share of a stage of n broadcasts,
	// which are its slots 0…n-1 in schedule order. Every member reserves
	// the same n before any broadcast of the stage, so a runtime can key a
	// broadcast's messages by its slot rather than by when it is called:
	// a root that posts its panel early (PostPanel) cannot take another
	// broadcast's key.
	Reserve(n int)
	// BcastPanel broadcasts the root's dst.Rows×dst.Cols panel src into
	// every member's dst, the root's own included, as the stage's
	// broadcast slot. Every member writes its dst with dst.Put, so the
	// engine chooses the form its working matrices take (it receives
	// straight into the DGEMM's packed strips) and the runtime never
	// stages a panel for it. How the elements travel is the runtime's
	// business (in-process, each member Puts straight out of the shared
	// view; the TCP runtime reads src on the root and packs one frame).
	// src must stay unwritten until the multiply returns — the engine only
	// ever passes views of its read-only A and B. It returns an error —
	// never hangs — when a member has been declared failed. A member whose
	// dimensions disagree with the root's is a bug the runtime reports
	// (netmpi with a *LengthMismatchError) instead of copying what fits.
	BcastPanel(p Proc, src matrix.Dense, dst matrix.Dest, root, slot int) error
	// PostPanel is the post pass's call (see assembleBands) for the
	// broadcast BcastPanel(p, src, dst, root, slot) would run, made in
	// schedule order before any BcastPanel of the stage. It reports
	// whether the pass may go on past the broadcast. On the root, it may
	// only once the runtime has run the whole broadcast, which it does
	// only if no member can make it wait. On another member PostPanel runs
	// nothing — its receive is left to BcastPanel — and reports whether
	// the member sends nothing in the broadcast, so that what this rank
	// posts later cannot overtake a frame it forwards.
	PostPanel(p Proc, src matrix.Dense, dst matrix.Dest, root, slot int) (bool, error)
}

// --- The in-process executor behind Multiply and MultiplyOn ---

// shmRank is one rank of an in-process multiply, its Proc and its only Comm.
// The ranks share A and B, so a broadcast is each member's own copy out of
// the shared operand: no rank ever waits for another, Split and Reserve are
// no-ops, and PostPanel runs nothing: with no wait, there is nothing to
// overlap. A shmRank
// holds no state, so a schedule's ranks serve every multiply.
type shmRank struct{ rank, size int }

func (r *shmRank) Rank() int                      { return r.rank }
func (r *shmRank) Size() int                      { return r.size }
func (r *shmRank) Split([]int) Comm               { return r }
func (*shmRank) Compute(float64, float64, string) {}

func (*shmRank) Reserve(int) {}

func (*shmRank) BcastPanel(_ Proc, src matrix.Dense, dst matrix.Dest, _, _ int) error {
	return dst.Put(&src)
}

func (*shmRank) PostPanel(Proc, matrix.Dense, matrix.Dest, int, int) (bool, error) {
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
