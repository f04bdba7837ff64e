package netmpi

import (
	"fmt"
	"math"
)

// AgreeEpoch is the collective half of epoch fencing. The pairwise hello
// check (see Dial) already rejects connections whose epoch differs, but it
// only runs where connections are (re-)established; AgreeEpoch runs a
// world-wide allgather of this endpoint's epoch and fails if any member
// reports a different one. Run it after Dial and before the first real
// collective of a recovered job: it doubles as a barrier, so no rank
// starts computing epoch e+1 while another is still unwinding epoch e.
func (e *Endpoint) AgreeEpoch() error {
	r, v, err := e.agree(uint64(e.cfg.Epoch))
	if err != nil {
		return fmt.Errorf("netmpi: epoch agreement: %w", err)
	}
	if r >= 0 {
		return fmt.Errorf("netmpi: rank %d is at epoch %d, this mesh is epoch %d (stale communicator)", r, v, e.cfg.Epoch)
	}
	return nil
}

// AgreeDigest checks, with AgreeEpoch's exchange, that every rank holds the
// same 64-bit digest d: ranks about to run one schedule compare its digest
// first, so that ranks which would run different ones fail at once instead
// of waiting on each other's broadcasts. The error names the first rank
// whose digest differs and both digests.
func (e *Endpoint) AgreeDigest(d uint64) error {
	r, v, err := e.agree(d)
	if err != nil {
		return fmt.Errorf("netmpi: digest agreement: %w", err)
	}
	if r >= 0 {
		return fmt.Errorf("netmpi: rank %d has digest %016x, rank %d has %016x", r, v, e.rank, d)
	}
	return nil
}

// agree allgathers v over the world, carried exactly as the bits of one
// float64, and returns the first rank whose value differs and that value,
// or rank -1. It doubles as a barrier.
func (e *Endpoint) agree(v uint64) (rank int, got uint64, err error) {
	if e.size == 1 {
		return -1, 0, nil
	}
	world := make([]int, e.size)
	for i := range world {
		world[i] = i
	}
	all, err := e.Split(world).Allgather([]float64{math.Float64frombits(v)})
	if err != nil {
		return -1, 0, err
	}
	for r, w := range all {
		if b := math.Float64bits(w); b != v {
			return r, b, nil
		}
	}
	return -1, 0, nil
}
