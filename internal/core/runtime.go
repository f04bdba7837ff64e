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
// provides ranks, sub-communicators and broadcasts — the shared-memory
// executor below (Multiply) or the distributed TCP runtime internal/netmpi
// (RunRank), the paper's future-work setting of distributed-memory nodes.
// Simulate needs no runtime: it walks the compiled schedule itself.
//
// Error contract: a runtime must never let a dead or failed peer block a
// collective forever. When a peer is declared failed, in-flight and
// subsequent collectives return an error (for internal/netmpi a
// *netmpi.PeerFailedError). The engine wraps such errors with the failing
// stage and returns them from RunRank/Multiply, so callers see a clean,
// rank-attributable failure instead of a deadlock. In-process ranks wait on
// no one, so Multiply returns every failed rank's error, naming the rank.

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
	// compute total (netmpi's Breakdown). The in-process executor keeps
	// none: Multiply records every op on the Report's Timeline itself.
	Compute(d, flops float64, label string)
}

// Comm is a communicator over a subset of ranks.
type Comm interface {
	// BcastPanel broadcasts the root's dst.Rows×dst.Cols panel src into
	// every member's dst, the root's own included. Every member writes its
	// dst with dst.Put, so the engine chooses the form its working
	// matrices take (it receives straight into the DGEMM's packed strips)
	// and the runtime never stages a panel for it. How the elements travel
	// is the runtime's business (in-process, each member Puts straight out
	// of the shared view; the TCP runtime reads src on the root and packs
	// one frame). src must stay unwritten until the multiply returns — the
	// engine only ever passes views of its read-only A and B. It returns an
	// error — never hangs — when a member has been declared failed. A
	// member whose dimensions disagree with the root's is a bug the runtime
	// reports (netmpi with a *LengthMismatchError) instead of copying what
	// fits.
	BcastPanel(p Proc, src matrix.Dense, dst matrix.Dest, root int) error
}

// --- The shared-memory executor behind Multiply ---

// shmRank is one rank of an in-process multiply, its Proc and its only Comm.
// The ranks share A and B, so a broadcast is each member's own copy out of
// the shared operand: no rank ever waits for another, and Split is a no-op.
type shmRank struct {
	rank, size int
	wa, wb     []float64
	err        error
}

func (r *shmRank) Rank() int                      { return r.rank }
func (r *shmRank) Size() int                      { return r.size }
func (r *shmRank) Split([]int) Comm               { return r }
func (*shmRank) Compute(float64, float64, string) {}

func (*shmRank) BcastPanel(_ Proc, src matrix.Dense, dst matrix.Dest, _ int) error {
	return dst.Put(&src)
}

// runShared runs every rank of s with main, rank 0 on the calling goroutine,
// and returns once all have returned, their errors (a panic is one) joined.
// Every rank's WA and WB are drawn first, in rank order: drawn by the ranks,
// in an order that varied between runs, they kept missing the slab free list.
func runShared(s *schedule, main func(p Proc, wa, wb []float64) error) error {
	ranks := make([]shmRank, s.layout.P)
	for r := range ranks {
		waLen, wbLen := s.ranks[r].workLens(s.layout.N)
		ranks[r] = shmRank{rank: r, size: len(ranks), wa: slab.Get(waLen), wb: slab.Get(wbLen)}
	}
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for r := 1; r < len(ranks); r++ {
		go ranks[r].run(main, &wg)
	}
	ranks[0].run(main, &wg)
	wg.Wait()
	var err error
	for r := range ranks {
		slab.Put(ranks[r].wa)
		slab.Put(ranks[r].wb)
		err = errors.Join(err, ranks[r].err)
	}
	return err
}

// run runs main as the rank and keeps its error, or its panic as one.
func (r *shmRank) run(main func(p Proc, wa, wb []float64) error, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Errorf("core: rank %d panicked: %v\n%s", r.rank, v, debug.Stack())
		}
	}()
	if err := main(r, r.wa, r.wb); err != nil {
		r.err = fmt.Errorf("core: rank %d: %w", r.rank, err)
	}
}
