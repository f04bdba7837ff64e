package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/mpi"
)

// Comm/compute overlap (DESIGN.md §11).
//
// rankMainOverlap pipelines the three SUMMA stages instead of running them
// back to back: a dedicated communication goroutine executes the exact
// sequential broadcast schedule (stage A then stage B — every rank
// issues every collective in the same deterministic global order, so MPI
// ordering rules still hold), and the calling goroutine runs the DGEMMs,
// gating each owned cell (i,j) on the readiness of WA row band i and WB
// column band j. Completed bands are announced by closing per-band
// channels; a closed channel is a broadcast-free, reusable "ready" signal.
//
// Correctness invariants:
//
//   - Band memory is written only by the comm goroutine and read by the
//     compute goroutine only after the band's channel is closed — the
//     close is the happens-before edge, so there are no data races and
//     the DGEMM inputs are bit-identical to sequential mode. C cells are
//     disjoint per (i,j) and written only by the compute goroutine.
//   - commErr is written only by the comm goroutine before it closes
//     commDone and read only after <-commDone.
//   - On a compute-side error the function returns WITHOUT waiting for
//     the comm goroutine: it may be blocked inside a collective that only
//     unblocks once this rank's main returns and the runtime aborts
//     (inproc) or an operation deadline fires (netmpi). The goroutine
//     recovers the eventual abort panic and exits on its own.
//   - On compute success every waited-on band channel was closed, which
//     means the comm goroutine is past its last broadcast; waiting for
//     commDone is deadlock-free and surfaces any trailing comm error.
//
// quiesced reports whether the comm goroutine was seen to have exited, i.e.
// whether nothing can write WA or WB any more and the caller may recycle
// them; it is false exactly on the error path that does not wait.
func rankMainOverlap(p Proc, cfg *Config, ws *workingSet, a, b, c, wa, wb *matrix.Dense) (quiesced bool, err error) {
	l := cfg.Layout
	rank := p.Rank()

	rowReady := make([]chan struct{}, l.GridRows)
	for i := range rowReady {
		rowReady[i] = make(chan struct{})
	}
	colReady := make([]chan struct{}, l.GridCols)
	for j := range colReady {
		colReady[j] = make(chan struct{})
	}

	commDone := make(chan struct{})
	var commErr error
	go func() {
		defer close(commDone)
		defer func() {
			if rec := recover(); rec != nil {
				// The inproc runtime aborts collectives blocked on a
				// failed peer with a typed panic. In sequential mode
				// World.Run recovers it; here the panic is on a helper
				// goroutine, so convert it to an error for the compute
				// side to return (which in turn triggers the world
				// abort / rank-failure path in the runtime).
				if pf, ok := rec.(*mpi.PeerFailedError); ok {
					commErr = fmt.Errorf("broadcast stage: %w", pf)
					return
				}
				commErr = fmt.Errorf("core: comm goroutine panicked: %v", rec)
			}
		}()
		if commErr = commStage(p, cfg, ws, axisA, a, wa, func(i int) { close(rowReady[i]) }); commErr != nil {
			return
		}
		commErr = commStage(p, cfg, ws, axisB, b, wb, func(j int) { close(colReady[j]) })
	}()

	// wait gates cell (i,j) on both of its input bands. The cell's owner
	// necessarily participates in grid row i and column j, so on a clean
	// comm run both channels are guaranteed to close.
	wait := func(i, j int) error {
		for _, ch := range [2]chan struct{}{rowReady[i], colReady[j]} {
			select {
			case <-ch:
			case <-commDone:
				if commErr != nil {
					return commErr
				}
				// Comm finished cleanly: every owned band is closed.
				<-ch
			}
		}
		return nil
	}

	sp := cfg.Span.Child("dgemm").OnRank(rank)
	if err := localCompute(p, cfg, ws, wa, wb, c, sp, wait); err != nil {
		sp.Str("error", err.Error()).End()
		select {
		case <-commDone:
			if err == commErr { //nolint:errorlint // pointer identity: was this commErr surfaced via wait?
				// Already wrapped with the failing broadcast stage.
				return true, err
			}
			return true, fmt.Errorf("compute stage: %w", err)
		default:
			// Comm goroutine still running — see the invariant above:
			// do not wait for it here.
			return false, fmt.Errorf("compute stage: %w", err)
		}
	}
	sp.End()
	<-commDone
	return true, commErr
}
