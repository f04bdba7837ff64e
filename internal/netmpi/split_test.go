package netmpi

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/matrix"
)

// fnvCommID is the id that wire format 1 gave the communicator of a sorted
// rank set: 32-bit FNV-1a over the ranks' little-endian bytes.
func fnvCommID(ranks []int) uint32 {
	h := fnv.New32a()
	for _, r := range ranks {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(r))
		h.Write(b[:])
	}
	return h.Sum32()
}

// collidingRankSets searches the rank sets of a size-rank world that
// contain rank 0 for two whose fnvCommIDs collide (at size 20 a pair turns
// up after about 228 000 sets).
func collidingRankSets(t *testing.T, size int) (x, y []int) {
	t.Helper()
	ranksOf := func(mask uint32) []int {
		var rs []int
		for r := 0; r < size; r++ {
			if mask>>r&1 == 1 {
				rs = append(rs, r)
			}
		}
		return rs
	}
	seen := map[uint32]uint32{}                        // id → rank-set mask
	for mask := uint32(1); mask < 1<<size; mask += 2 { // odd: rank 0 is a member
		id := fnvCommID(ranksOf(mask))
		if prev, ok := seen[id]; ok {
			return ranksOf(prev), ranksOf(mask)
		}
		seen[id] = mask
	}
	t.Fatalf("no two of the %d rank sets share an id", len(seen))
	return nil, nil
}

// TestBcastPanelCollidingRankSets: on a 20-rank loopback mesh, one stage
// broadcasts over two rank sets whose hashed communicator ids collided when
// frames were keyed by member set, each from its highest rank and with
// panels of different shapes. Keyed by the schedule, every member of each
// set receives its root's exact panel.
func TestBcastPanelCollidingRankSets(t *testing.T) {
	const size = 20
	x, y := collidingRankSets(t, size)
	t.Logf("rank sets %v and %v share FNV id %#x", x, y, fnvCommID(x))
	sets := [][]int{x, y}
	panels := make([]*matrix.Dense, len(sets))
	for i := range panels {
		panels[i] = matrix.New(3+i, 5)
		for k := range panels[i].Data {
			panels[i].Data[k] = float64(1000*i + k)
		}
	}
	eps := localWorld(t, size)
	runAll(t, eps, func(ep *Endpoint) error {
		first := ep.BeginStage(len(sets))
		for i, members := range sets {
			if !slices.Contains(members, ep.Rank()) {
				continue
			}
			root, src := len(members)-1, matrix.Dense{}
			if members[root] == ep.Rank() {
				src = *panels[i]
			}
			dst := matrix.New(panels[i].Rows, panels[i].Cols)
			if err := ep.BcastPanel(src, matrix.Into(*dst), members, root, first+i); err != nil {
				return err
			}
			if !matrix.Equal(dst, panels[i]) {
				return fmt.Errorf("rank %d in %v received %v, want %v", ep.Rank(), members, dst.Data, panels[i].Data)
			}
		}
		return nil
	})
}
