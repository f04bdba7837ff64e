package core

import (
	"repro/internal/matrix"
	"repro/internal/mpi"
)

// The engine is transport-generic: it can execute over any runtime that
// provides ranks, sub-communicators and broadcasts — the in-process channel
// runtime (internal/mpi) by default, or a distributed TCP runtime
// (internal/netmpi) for the paper's future-work setting of
// distributed-memory nodes. Simulate needs no runtime: it walks the compiled
// schedule itself.
//
// Error contract: a runtime must never let a dead or failed peer block a
// collective forever. When a peer is declared failed, in-flight and
// subsequent collectives return an error (for internal/netmpi a
// *netmpi.PeerFailedError; internal/mpi aborts blocked collectives with a
// *mpi.PeerFailedError once any rank exits with an error). The engine
// wraps such errors with the failing stage and returns them from
// RunRank/Multiply, so callers see a clean, rank-attributable failure
// instead of a deadlock.

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
	// compute total (netmpi's Breakdown). The in-process runtime keeps
	// none: Multiply records every op on the Report's Timeline itself.
	Compute(d, flops float64, label string)
}

// Comm is a communicator over a subset of ranks.
type Comm interface {
	// BcastPanel broadcasts the root's dst.Rows×dst.Cols panel src into
	// every member's dst, the root's own included; src is read on the
	// root only. Every member writes its dst with dst.Put, so the engine
	// chooses the form its working matrices take (it receives straight
	// into the DGEMM's packed strips) and the runtime never stages a panel
	// for it. How the elements travel is the runtime's business (the
	// in-process runtime lets members Put straight out of the root's
	// view, the TCP runtime packs one frame). The root's src must stay
	// unwritten until the runtime's Run returns — the engine only ever
	// passes views of its read-only A and B. It returns an error — never
	// hangs — when a member has been declared failed. A member whose
	// dimensions disagree with the root's is a bug the runtime reports
	// (netmpi with a *LengthMismatchError, mpi with a rank panic) instead
	// of copying what fits.
	BcastPanel(p Proc, src matrix.Dense, dst matrix.Dest, root int) error
}

// --- Adapter over the in-process mpi runtime ---

type mpiProc struct{ p *mpi.Proc }

func (m mpiProc) Rank() int                    { return m.p.Rank() }
func (m mpiProc) Size() int                    { return m.p.Size() }
func (m mpiProc) Split(ranks []int) Comm       { return mpiComm{m.p.Split(ranks)} }
func (mpiProc) Compute(_, _ float64, _ string) {}

type mpiComm struct{ c *mpi.Comm }

// BcastPanel converts the in-process runtime's abort panic (raised when
// another rank fails mid-collective) into a returned error, matching the
// netmpi adapter's semantics so the engine wraps it with stage context.
func (m mpiComm) BcastPanel(p Proc, src matrix.Dense, dst matrix.Dest, root int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if pf, ok := rec.(*mpi.PeerFailedError); ok {
				err = pf
				return
			}
			panic(rec)
		}
	}()
	m.c.BcastPanel(p.(mpiProc).p, src, dst, root)
	return nil
}
