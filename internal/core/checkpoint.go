package core

// Checkpointer is the engine's per-cell progress hook. In SummaGen every C
// cell is produced by exactly one DGEMM on one rank — there is no partial
// accumulation across ranks — and by the exact-result contract its bits do
// not depend on the layout that computed it, so a completed cell of C is
// final the moment its DGEMM returns. C is therefore the checkpoint: a
// Checkpointer only records which cells are final. The compute stage
// consults it before each owned cell (skipping cells C already holds from a
// previous attempt) and reports each freshly computed cell, which makes a
// multiply resumable after a rank failure under a *different* partition —
// completed work is identified by global C coordinates, not by the layout
// that produced it.
//
// The design relies on two conditions:
//   - the caller passes the same C to every attempt that shares a
//     Checkpointer;
//   - a DGEMM that starts always completes before MultiplyOn returns:
//     stage 3 has no network op, and the executor joins every rank.
//
// A recomputed cell that overlaps a final region rewrites it with the same
// bits.
//
// Implementations must be safe for concurrent use: the distributed runtime
// runs one compute stage per rank.
//
// The canonical implementation is internal/recover.Binding, which matches
// recorded cells against the cells of a replanned layout by rectangle
// coverage.
type Checkpointer interface {
	// Restore reports whether earlier saves cover every element of the h×w
	// C cell at global element offset (r0, c0), so that C already holds it
	// and the cell is skipped. A partially covered cell must be recomputed.
	Restore(r0, c0, h, w int) bool
	// Save records that the h×w cell at (r0, c0) of C is final.
	Save(r0, c0, h, w int)
}
