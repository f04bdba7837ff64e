// Package recover turns a detected, attributed rank failure into a resumed
// multiplication: the survivor-replan half of the fault-tolerance story.
//
// The paper's partition algorithms work for any processor count and speed
// vector, which means a dead rank is not fatal — the job can be replanned
// over the survivors (Replan), and the work already finished does not have
// to be redone. Completed C cells are persisted through a CheckpointStore
// keyed by *global* matrix coordinates, so they remain valid under the new
// partition even though its cell boundaries differ; a Binding remaps them
// onto the new layout by exact rectangle coverage and implements the
// engine's core.Checkpointer hook.
//
// The driving loop — detect, attribute, drop the casualty, replan, resume —
// lives in internal/sched; the netmpi mesh rebuild and epoch agreement live
// in internal/netmpi.
package recover

import (
	"fmt"
	"sort"
	"sync"
)

// Cell is one completed C sub-block, in global element coordinates of the
// N×N result matrix. Data is row-major H×W and owned by the cell.
type Cell struct {
	Row, Col int
	H, W     int
	Data     []float64
}

// Key identifies a cell's rectangle.
func (c Cell) Key() string { return fmt.Sprintf("%d_%d_%d_%d", c.Row, c.Col, c.H, c.W) }

func (c Cell) validate() error {
	if c.Row < 0 || c.Col < 0 || c.H <= 0 || c.W <= 0 {
		return fmt.Errorf("recover: invalid cell %dx%d at (%d,%d)", c.H, c.W, c.Row, c.Col)
	}
	if len(c.Data) != c.H*c.W {
		return fmt.Errorf("recover: cell %s has %d elements, want %d", c.Key(), len(c.Data), c.H*c.W)
	}
	return nil
}

// CheckpointStore persists completed cells per job. Implementations must be
// safe for concurrent use; Save is called from every rank's compute stage.
type CheckpointStore interface {
	// Save durably records one completed cell for the job. It takes
	// ownership of cell.Data until the job's Clear returns: the store may
	// keep the slice rather than copy it (MemStore does), so the caller
	// must not write it afterwards, and the store must not write it either
	// — cells it returns from Load may share that memory with the caller.
	Save(jobID string, cell Cell) error
	// Load returns every cell recorded for the job, in deterministic
	// order. A job with no checkpoint returns an empty slice, not an
	// error.
	Load(jobID string) ([]Cell, error)
	// Clear discards the job's checkpoint after the job reaches a
	// terminal state. Once it returns, the store holds no reference to the
	// Data of any cell saved for the job, so the saver may recycle it
	// (Binding.Release).
	Clear(jobID string) error
}

// MemStore is the in-memory CheckpointStore — the natural choice for the
// in-process runtimes, where a rank failure never loses the service's own
// address space.
type MemStore struct {
	mu   sync.Mutex
	jobs map[string][]Cell
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{jobs: map[string][]Cell{}}
}

// Save implements CheckpointStore, keeping cell.Data itself.
func (s *MemStore) Save(jobID string, cell Cell) error {
	if err := cell.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[jobID] = append(s.jobs[jobID], cell)
	return nil
}

// Load implements CheckpointStore.
func (s *MemStore) Load(jobID string) ([]Cell, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cells := append([]Cell(nil), s.jobs[jobID]...)
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
	return cells, nil
}

// Clear implements CheckpointStore.
func (s *MemStore) Clear(jobID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, jobID)
	return nil
}
