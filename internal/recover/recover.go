// Package recover turns a detected, attributed rank failure into a resumed
// multiplication: the survivor-replan half of the fault-tolerance story.
//
// The paper's partition algorithms work for any processor count and speed
// vector, which means a dead rank is not fatal — the job can be replanned
// over the survivors (internal/sched's planner), and the work already
// finished does not have to be redone. Every C cell is computed by exactly one rank in one DGEMM,
// so a finished cell is final whatever layout a later attempt uses, and the
// job's C, which every attempt writes, already holds it. The job's Binding
// records which cells are final, keyed by *global* matrix coordinates,
// matches them against a replanned layout by exact rectangle coverage and
// implements the engine's core.Checkpointer hook.
//
// The driving loop — detect, attribute, drop the casualty, replan, resume —
// lives in internal/sched; the netmpi mesh rebuild and epoch agreement live
// in internal/netmpi.
package recover

import "fmt"

// Cell is one completed C sub-block, in global element coordinates of the
// N×N result matrix.
type Cell struct {
	Row, Col int
	H, W     int
}

// DropRank removes index dead from a survivor-ordered slice, returning a
// fresh slice — used for both the speed vector and the rank-to-origin map.
func DropRank[T any](xs []T, dead int) ([]T, error) {
	if dead < 0 || dead >= len(xs) {
		return nil, fmt.Errorf("recover: dead rank %d outside [0,%d)", dead, len(xs))
	}
	out := make([]T, 0, len(xs)-1)
	out = append(out, xs[:dead]...)
	return append(out, xs[dead+1:]...), nil
}
