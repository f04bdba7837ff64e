package netmpi

import (
	"repro/internal/core"
	"repro/internal/matrix"
)

// Proc adapts the endpoint to the engine's runtime contract, so
// core.MultiplyOn executes SummaGen over TCP. Network failures — a peer
// resetting, going silent past Config.OpTimeout, or sending a frame that
// fails its CRC — surface as a typed *PeerFailedError returned from the
// collectives, which the engine wraps with the failing stage and rank and
// returns to the caller; a lost peer is a clean error for the rank, never a
// deadlock, and the process supervisor owns recovery.
func (e *Endpoint) Proc() core.Proc { return netProc{e} }

type netProc struct{ ep *Endpoint }

func (p netProc) Rank() int                              { return p.ep.Rank() }
func (p netProc) Size() int                              { return p.ep.Size() }
func (p netProc) Compute(d, flops float64, label string) { p.ep.Compute(d, flops, label) }
func (p netProc) Split(ranks []int) core.Comm            { return netComm{p.ep.Split(ranks)} }

type netComm struct{ c *Comm }

func (nc netComm) Reserve(n int) { nc.c.Reserve(n) }

func (nc netComm) BcastPanel(_ core.Proc, src matrix.Dense, dst matrix.Dest, root, slot int) error {
	return nc.c.BcastPanel(src, dst, root, slot)
}

func (nc netComm) PostPanel(_ core.Proc, src matrix.Dense, dst matrix.Dest, root, slot int) (bool, error) {
	return nc.c.PostPanel(src, dst, root, slot)
}
