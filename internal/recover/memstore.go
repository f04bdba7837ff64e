package recover

// MemStore and NewBinding remain only for the frozen benchmark module,
// which counts one job's checkpoint cells through them; no product path
// uses them (like sched.MatrixDigest). A MemStore is a view of the one
// Binding made with it.
type MemStore struct{ b *Binding }

// NewMemStore returns a view with no Binding yet.
func NewMemStore() *MemStore { return new(MemStore) }

// NewBinding returns a new, empty Binding and makes s a view of it. The
// job id is ignored: a Binding holds one job's cells.
func NewBinding(s *MemStore, _ string) (*Binding, error) {
	s.b = new(Binding)
	return s.b, nil
}

// Load returns the cells of the Binding made with s.
func (s *MemStore) Load(string) ([]Cell, error) {
	if s.b == nil {
		return nil, nil
	}
	return s.b.Cells(), nil
}
