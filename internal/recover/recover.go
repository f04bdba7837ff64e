// Package recover turns a detected, attributed rank failure into a resumed
// multiplication: the survivor-replan half of the fault-tolerance story.
//
// The paper's partition algorithms work for any processor count and speed
// vector, which means a dead rank is not fatal — the job can be replanned
// over the survivors (Replan), and the work already finished does not have
// to be redone. Every C cell is computed by exactly one rank in one DGEMM,
// so a finished cell is final whatever layout a later attempt uses. The
// job's Binding keeps the cells its attempts finished, keyed by *global*
// matrix coordinates, remaps them onto a replanned layout by exact
// rectangle coverage and implements the engine's core.Checkpointer hook.
//
// The driving loop — detect, attribute, drop the casualty, replan, resume —
// lives in internal/sched; the netmpi mesh rebuild and epoch agreement live
// in internal/netmpi.
package recover

// Cell is one completed C sub-block, in global element coordinates of the
// N×N result matrix. Data is row-major H×W.
type Cell struct {
	Row, Col int
	H, W     int
	Data     []float64
}
