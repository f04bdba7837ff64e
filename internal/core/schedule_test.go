package core

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/trace"
)

// dgemmSpans returns the per-rectangle "dgemm[" spans of one recorded multiply.
func dgemmSpans(rec *obs.Recorder) []obs.Span {
	var out []obs.Span
	for _, sp := range rec.Spans() {
		if strings.HasPrefix(sp.Name, "dgemm[") {
			out = append(out, sp)
		}
	}
	return out
}

// TestScheduleDgemmCounts pins the compute schedule on the benchmark layouts:
// one DGEMM per owned rectangle — a maximal row run of owned cells, stacked
// over consecutive rows holding the identical run — and together they charge
// exactly 2N³ flops.
func TestScheduleDgemmCounts(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(5))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	want := map[partition.Shape]int{
		partition.SquareCorner: 5, partition.SquareRectangle: 4,
		partition.BlockRectangle: 3, partition.OneDRectangle: 3,
	}
	for _, sh := range partition.Shapes {
		rec := obs.NewRecorder()
		if _, err := Multiply(a, b, c, Config{Layout: buildLayout(t, sh, n, benchSpeeds), Span: rec.Root("job")}); err != nil {
			t.Fatal(err)
		}
		spans := dgemmSpans(rec)
		var flops float64
		for _, sp := range spans {
			for _, at := range sp.Attrs {
				if at.Key == "flops" {
					flops += at.Float
				}
			}
		}
		if len(spans) != want[sh] {
			t.Errorf("%v: %d dgemm spans, want %d", sh, len(spans), want[sh])
		}
		if flops != 2*n*n*n {
			t.Errorf("%v: dgemm spans charge %v flops, want 2N³ = %d", sh, flops, 2*n*n*n)
		}
	}
}

// cellCheckpointer restores exactly one cell, from the oracle, and counts
// every Restore and Save by cell origin.
type cellCheckpointer struct {
	want            *matrix.Dense
	r0, c0          int // the one cell Restore covers
	mu              sync.Mutex
	restores, saves map[[2]int]int
}

func (k *cellCheckpointer) Restore(r0, c0, h, w int, dst []float64, stride int) bool {
	k.mu.Lock()
	k.restores[[2]int{r0, c0}]++
	k.mu.Unlock()
	if r0 != k.r0 || c0 != k.c0 {
		return false
	}
	for i := 0; i < h; i++ {
		copy(dst[i*stride:i*stride+w], k.want.Data[(r0+i)*k.want.Stride+c0:])
	}
	return true
}

func (k *cellCheckpointer) Save(r0, c0, h, w int, src []float64, stride int) {
	k.mu.Lock()
	k.saves[[2]int{r0, c0}]++
	k.mu.Unlock()
}

// TestCheckpointSplitsFusedRun: a restored cell is never recomputed, so it
// cuts its run in two. Square-corner's rank 1 owns all of grid row 1;
// restoring the middle cell leaves two DGEMMs for that row. Restore still
// sees every owned cell once, Save every recomputed cell once, and C stays
// exact.
func TestCheckpointSplitsFusedRun(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(6))
	a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
	want := oneRankProduct(t, a, b)
	l := buildLayout(t, partition.SquareCorner, n, benchSpeeds)
	if l.GridRows != 3 || l.GridCols != 3 || l.OwnerAt(1, 0) != 1 || l.OwnerAt(1, 1) != 1 || l.OwnerAt(1, 2) != 1 {
		t.Fatalf("square-corner grid row 1 is not rank 1's alone: owners %v", l.Owner)
	}
	ck := &cellCheckpointer{want: want, r0: l.RowStart(1), c0: l.ColStart(1),
		restores: map[[2]int]int{}, saves: map[[2]int]int{}}
	for i := range c.Data {
		c.Data[i] = math.NaN()
	}
	rec := obs.NewRecorder()
	if _, err := Multiply(a, b, c, Config{Layout: l, Checkpoint: ck, Span: rec.Root("job")}); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "checkpointed square-corner", c, want)
	var row1 []string
	for _, sp := range dgemmSpans(rec) {
		if sp.Rank == 1 && strings.HasPrefix(sp.Name, "dgemm[1:2,") {
			row1 = append(row1, sp.Name)
		}
	}
	sort.Strings(row1)
	if got := strings.Join(row1, " "); got != "dgemm[1:2,0:1] dgemm[1:2,2:3]" {
		t.Errorf("rank 1's row 1 ran as %q, want two DGEMMs around the restored cell", got)
	}
	for i := 0; i < l.GridRows; i++ {
		for j := 0; j < l.GridCols; j++ {
			cell := [2]int{l.RowStart(i), l.ColStart(j)}
			wantSaves := 1
			if i == 1 && j == 1 {
				wantSaves = 0
			}
			if ck.restores[cell] != 1 || ck.saves[cell] != wantSaves {
				t.Errorf("cell (%d,%d): %d restores, %d saves; want 1, %d", i, j, ck.restores[cell], ck.saves[cell], wantSaves)
			}
		}
	}
}

// TestScheduleCacheEvictsOne: a miss at the bound evicts one schedule, not
// the whole cache, and a layout compiled past the bound multiplies exactly
// like it did when it was compiled first.
func TestScheduleCacheEvictsOne(t *testing.T) {
	cached := func() int {
		schedules.Lock()
		defer schedules.Unlock()
		return len(schedules.m)
	}
	const n0 = 16
	rng := rand.New(rand.NewSource(9))
	a, b := matrix.Random(n0, n0, rng), matrix.Random(n0, n0, rng)
	l := buildLayout(t, partition.SquareCorner, n0, benchSpeeds)
	first, again := matrix.New(n0, n0), matrix.New(n0, n0)
	if _, err := Multiply(a, b, first, Config{Layout: l}); err != nil {
		t.Fatal(err)
	}
	schedules.Lock()
	clear(schedules.m)
	schedules.Unlock()
	for n := n0 + 1; cached() < maxSchedules; n++ {
		if _, err := scheduleFor(buildLayout(t, partition.OneDRectangle, n, benchSpeeds)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Multiply(a, b, again, Config{Layout: l}); err != nil {
		t.Fatal(err)
	}
	if got := cached(); got != maxSchedules {
		t.Fatalf("after a miss at the bound the cache holds %d schedules, want %d", got, maxSchedules)
	}
	if !matrix.Equal(first, again) {
		t.Fatal("a layout compiled past the bound gave a different product")
	}
}

// TestTimelineSizedFromSchedule: a checkpoint-free multiply records exactly
// the events its schedule counts (one split per band, one bcast per
// broadcast op and one compute per rectangle, on every member), so the
// Timeline that Multiply sizes from the schedule never grows. Checked on
// random layouts at P = 1–6; Simulate records the same ops plus its idle
// events.
func TestTimelineSizedFromSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for p := 1; p <= 6; p++ {
		for k := 0; k < 6; k++ {
			n := 8*p + rng.Intn(24)
			l := randomLayout(rng, n, p)
			s, err := scheduleFor(l)
			if err != nil {
				t.Fatal(err)
			}
			a, b, c := matrix.Random(n, n, rng), matrix.Random(n, n, rng), matrix.New(n, n)
			rep, err := Multiply(a, b, c, Config{Layout: l})
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Timeline.Len(); got != s.events {
				t.Errorf("P=%d layout %+v: Multiply recorded %d events, the schedule counts %d", p, l, got, s.events)
			}
			sim, err := Simulate(Config{Layout: l, Platform: testPlatform(p)})
			if err != nil {
				t.Fatal(err)
			}
			ops := 0
			for _, e := range sim.Timeline.Events() {
				if e.Kind != trace.Idle {
					ops++
				}
			}
			if ops != s.events {
				t.Errorf("P=%d layout %+v: Simulate recorded %d op events, the schedule counts %d", p, l, ops, s.events)
			}
		}
	}
}
