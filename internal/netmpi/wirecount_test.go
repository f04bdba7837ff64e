package netmpi

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// TestFramesAndBytesPerMultiply pins what a warm multiply puts on the wire
// of a 3-rank loopback mesh at N = 128, shape by shape: the data frames and
// payload bytes every endpoint sent, summed (PeerStats.FramesSent and
// BytesSent). One frame per broadcast edge of the binomial tree, a panel
// once per receiving member; how frames are keyed must not move either.
// The four shapes average 7.5 frames and 242 688 bytes per multiply.
func TestFramesAndBytesPerMultiply(t *testing.T) {
	const n, warm, runs = 128, 2, 5
	want := map[partition.Shape][2]int64{ // frames, bytes per multiply
		partition.SquareCorner:    {8, 258048},
		partition.SquareRectangle: {10, 256000},
		partition.BlockRectangle:  {6, 194560},
		partition.OneDRectangle:   {6, 262144},
	}
	eps := localWorld(t, 3)
	procs := make([]core.Proc, len(eps))
	for i, ep := range eps {
		procs[i] = ep.Proc()
	}
	sent := func() (frames, bytes int64) {
		for _, ep := range eps {
			for _, ps := range ep.Stats().Peers {
				frames, bytes = frames+ps.FramesSent, bytes+ps.BytesSent
			}
		}
		return frames, bytes
	}
	rng := rand.New(rand.NewSource(43))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	var frames, bytes int64
	for i, l := range benchLayouts(t, n) {
		shape, cfg := partition.Shapes[i], core.Config{Layout: l}
		for range warm {
			if _, err := core.MultiplyOn(procs, a, b, c, cfg); err != nil {
				t.Fatal(err)
			}
		}
		f0, b0 := sent()
		for range runs {
			if _, err := core.MultiplyOn(procs, a, b, c, cfg); err != nil {
				t.Fatal(err)
			}
		}
		f1, b1 := sent()
		got := [2]int64{(f1 - f0) / runs, (b1 - b0) / runs}
		t.Logf("%v: %d frames and %d bytes per multiply", shape, got[0], got[1])
		if got != want[shape] || (f1-f0)%runs != 0 || (b1-b0)%runs != 0 {
			t.Errorf("%v: %d frames and %d bytes over %d multiplies, want %d and %d each", shape, f1-f0, b1-b0, runs, want[shape][0], want[shape][1])
		}
		frames, bytes = frames+got[0], bytes+got[1]
	}
	t.Logf("%.2f frames and %.0f bytes per multiply on average", float64(frames)/4, float64(bytes)/4)
}
