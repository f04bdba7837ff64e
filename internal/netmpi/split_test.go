package netmpi

import (
	"encoding/binary"
	"hash/fnv"
	"strings"
	"testing"
)

// fnvCommID is the communicator id of a sorted rank set as the wire has
// always carried it: 32-bit FNV-1a over the ranks' little-endian bytes.
func fnvCommID(ranks []int) uint32 {
	h := fnv.New32a()
	for _, r := range ranks {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(r))
		h.Write(b[:])
	}
	return h.Sum32()
}

// TestSplitCachesCommPerRankSet: Split hands out one Comm per rank set,
// whatever the order the ranks come in, under the id the wire has always
// used for it.
func TestSplitCachesCommPerRankSet(t *testing.T) {
	ep := &Endpoint{rank: 1, size: 4, comms: map[uint32]*Comm{}}
	c := ep.Split([]int{3, 1, 0})
	if got := ep.Split([]int{0, 1, 3}); got != c {
		t.Fatal("a second Split of the same rank set built a new Comm")
	}
	if want := fnvCommID([]int{0, 1, 3}); c.id != want {
		t.Fatalf("comm id %#x, want %#x", c.id, want)
	}
	if d := ep.Split([]int{1, 2}); d == c || d.id != fnvCommID([]int{1, 2}) {
		t.Fatalf("rank set [1 2] got comm %v with id %#x", d.ranks, d.id)
	}
	set := []int{0, 1, 3}
	if n := testing.AllocsPerRun(100, func() { ep.Split(set) }); n != 0 {
		t.Fatalf("a cached Split allocates %v times", n)
	}
}

// TestSplitRejectsCommIDCollision searches the rank sets of a 20-rank world
// that contain rank 0 for two whose 32-bit ids collide (one turns up after
// about 228 000 sets), then splits both on rank 0's endpoint: the second
// Split must fail loudly instead of sharing the first one's tag sequence
// and frame keys.
func TestSplitRejectsCommIDCollision(t *testing.T) {
	const size = 20
	ranksOf := func(mask uint32) []int {
		var rs []int
		for r := 0; r < size; r++ {
			if mask>>r&1 == 1 {
				rs = append(rs, r)
			}
		}
		return rs
	}
	seen := map[uint32]uint32{} // id → rank-set mask
	var x, y []int
	for mask := uint32(1); mask < 1<<size && x == nil; mask += 2 { // odd: rank 0 is a member
		id := fnvCommID(ranksOf(mask))
		if prev, ok := seen[id]; ok {
			x, y = ranksOf(prev), ranksOf(mask)
		}
		seen[id] = mask
	}
	if x == nil {
		t.Fatalf("no two of the %d rank sets share an id", len(seen))
	}
	ep := &Endpoint{rank: 0, size: size, comms: map[uint32]*Comm{}}
	ep.Split(x)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "same communicator id") {
			t.Fatalf("splitting %v after %v (one id): got %q, want a collision panic", y, x, msg)
		}
	}()
	ep.Split(y)
}
