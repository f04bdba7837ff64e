package netmpi

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/partition"
)

// TestScheduleFrameCounts pins the communication schedule on the benchmark
// layouts at N = 128: one broadcast per maximal run of same-owner cells along
// a shared band, so square-corner, square-rectangle, block-rectangle and 1D
// send 8, 10, 6 and 6 data frames per multiply, and the payload is exactly
// the layout's communication volume.
func TestScheduleFrameCounts(t *testing.T) {
	const n = 128
	eps := localWorld(t, 3)
	rng := rand.New(rand.NewSource(7))
	a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
	sent := func() (frames, bytes int64) {
		for _, ep := range eps {
			for _, ps := range ep.Stats().Peers {
				frames += ps.FramesSent
				bytes += ps.BytesSent
			}
		}
		return frames, bytes
	}
	for k, l := range benchLayouts(t, n) {
		f0, b0 := sent()
		runOverMesh(t, eps, l, a, b)
		f1, b1 := sent()
		var volume int64
		for _, v := range l.CommVolumes() {
			volume += int64(v)
		}
		if want := []int64{8, 10, 6, 6}[k]; f1-f0 != want {
			t.Errorf("%v: %d frames per multiply, want %d", partition.Shapes[k], f1-f0, want)
		}
		if b1-b0 != 8*volume {
			t.Errorf("%v: %d bytes per multiply, want CommVolumes()×8 = %d", partition.Shapes[k], b1-b0, 8*volume)
		}
	}
}
