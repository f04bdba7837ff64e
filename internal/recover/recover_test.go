package recover

import (
	"testing"

	"repro/internal/slab"
)

// ramp returns n values counting up from fill.
func ramp(n int, fill float64) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = fill + float64(i)
	}
	return data
}

func TestBindingRestoreByCoverage(t *testing.T) {
	// Epoch-0 layout wrote two horizontally adjacent 4×4 cells.
	b := &Binding{cells: []Cell{
		{Row: 0, Col: 0, H: 4, W: 4, Data: ramp(16, 0)},
		{Row: 0, Col: 4, H: 4, W: 4, Data: ramp(16, 100)},
	}}
	// The replanned layout asks for a 4×8 cell spanning both: fully
	// covered, restored from the two pieces.
	dst := make([]float64, 4*8)
	if !b.Restore(0, 0, 4, 8, dst, 8) {
		t.Fatal("fully covered cell not restored")
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			if got, want := dst[r*8+c], float64(r*4+c); got != want {
				t.Fatalf("left half [%d,%d] = %g, want %g", r, c, got, want)
			}
			if got, want := dst[r*8+4+c], 100+float64(r*4+c); got != want {
				t.Fatalf("right half [%d,%d] = %g, want %g", r, c, got, want)
			}
		}
	}
	// A cell reaching past the checkpointed region must not restore.
	if b.Restore(0, 0, 5, 8, make([]float64, 5*8), 8) {
		t.Fatal("partially covered cell restored")
	}
	restored, computed, _ := b.Stats()
	if restored != 1 || computed != 0 {
		t.Fatalf("stats = (%d, %d), want (1, 0)", restored, computed)
	}
}

func TestBindingOverlappingCellsCoverExactly(t *testing.T) {
	var b Binding
	// Two attempts under different layouts leave overlapping rectangles:
	// [0,4)×[0,6) and [0,4)×[4,8). A naive area-sum check would think
	// 24+16=40 elements cover the 4×8=32 target before it actually does.
	src := make([]float64, 4*6)
	for i := range src {
		src[i] = float64(i)
	}
	b.Save(0, 0, 4, 6, src, 6)
	src2 := make([]float64, 4*4)
	b.Save(0, 4, 4, 4, src2, 4)
	if !b.Restore(0, 0, 4, 8, make([]float64, 4*8), 8) {
		t.Fatal("overlapping cover not recognized")
	}
	// Shift the target one row past the covered band: exact subtraction
	// must notice the gap that area arithmetic cannot.
	if b.Restore(1, 0, 4, 8, make([]float64, 4*8), 8) {
		t.Fatal("uncovered row restored")
	}
	if _, _, redone := b.Stats(); redone != 0 {
		t.Fatalf("redone = %d, want 0", redone)
	}
}

func TestDropRank(t *testing.T) {
	out, err := DropRank([]int{10, 11, 12}, 1)
	if err != nil || len(out) != 2 || out[0] != 10 || out[1] != 12 {
		t.Fatalf("DropRank = %v, %v", out, err)
	}
	if _, err := DropRank([]int{1}, 1); err == nil {
		t.Fatal("out-of-range dead rank must error")
	}
	if _, err := DropRank([]int{1}, -1); err == nil {
		t.Fatal("negative dead rank must error")
	}
}

// TestBindingRelease pins Release's ownership rules: the cells a Binding
// saved go back to the slab free list (the next Get of the same size hands
// out that very backing array), a second Release returns nothing twice, and
// the Binding checkpoints again afterwards.
func TestBindingRelease(t *testing.T) {
	// Sizes no other test in this package checkpoints, in distinct slab
	// classes, so each Get below can only pop what Release returned.
	const h1, w1, h2, w2 = 7, 13, 3, 5
	b := new(Binding)
	b.Save(0, 0, h1, w1, make([]float64, h1*w1), w1)
	b.Save(h1, 0, h2, w2, make([]float64, h2*w2), w2)
	cells := b.Cells()
	if len(cells) != 2 {
		t.Fatalf("binding holds %d cells, want 2", len(cells))
	}
	saved := map[int]*float64{}
	for _, c := range cells {
		saved[len(c.Data)] = &c.Data[0]
	}

	b.Release()
	if b.Restore(0, 0, h1, w1, make([]float64, h1*w1), w1) || len(b.Cells()) != 0 {
		t.Fatal("a released Binding still holds cells")
	}
	got := map[int][]float64{}
	for n, p := range saved {
		got[n] = slab.Get(n)
		if &got[n][0] != p {
			t.Errorf("slab.Get(%d) after Release did not hand out the released cell", n)
		}
	}

	b.Release()
	for n, p := range saved {
		again := slab.Get(n)
		if &again[0] == p {
			t.Errorf("a second Release returned the %d-element cell to the free list again", n)
		}
		slab.Put(again)
	}
	for _, s := range got {
		slab.Put(s)
	}

	src := []float64{1, 2, 3, 4}
	b.Save(2, 2, 2, 2, src, 2)
	dst := make([]float64, 4)
	if !b.Restore(2, 2, 2, 2, dst, 2) || dst[3] != 4 {
		t.Fatalf("Save after Release: restored %v", dst)
	}
	if cells := b.Cells(); len(cells) != 1 {
		t.Fatalf("Save after Release: binding holds %d cells, want 1", len(cells))
	}
	if _, computed, redone := b.Stats(); computed != 3 || redone != 0 {
		t.Fatalf("stats computed %d redone %d, want 3 and 0", computed, redone)
	}
}

// TestCoverageCheckAllocatesNothing: once a Binding's scratch lists have
// grown, the coverage check behind every Save and Restore allocates nothing.
func TestCoverageCheckAllocatesNothing(t *testing.T) {
	b := new(Binding)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			b.Save(8*r, 8*c, 8, 8, make([]float64, 64), 8)
		}
	}
	dst := make([]float64, 20*20)
	if allocs := testing.AllocsPerRun(100, func() {
		if !b.Restore(6, 6, 20, 20, dst, 20) || b.Restore(6, 6, 27, 20, dst, 20) {
			t.Fatal("coverage misjudged")
		}
	}); allocs != 0 {
		t.Fatalf("a coverage check allocates %.1f times", allocs)
	}
}

// TestMemStoreViewsItsBinding pins the benchmark module's view: a MemStore
// loads exactly the cells of the Binding made with it, which Save copied
// out of the engine's C rather than aliasing it.
func TestMemStoreViewsItsBinding(t *testing.T) {
	store := NewMemStore()
	if cells, err := store.Load("ladder"); err != nil || len(cells) != 0 {
		t.Fatalf("before NewBinding: %d cells, err %v", len(cells), err)
	}
	b, err := NewBinding(store, "ladder")
	if err != nil {
		t.Fatal(err)
	}
	src := ramp(4, 0)
	b.Save(0, 0, 2, 2, src, 2)
	b.Save(0, 2, 2, 1, ramp(2, 10), 1)
	src[0] = 99
	cells, err := store.Load("ladder")
	if err != nil || len(cells) != 2 || cells[1].Col != 2 || cells[1].Data[1] != 11 {
		t.Fatalf("Load = %+v, err %v; want the Binding's two cells", cells, err)
	}
	if cells[0].Data[0] != 0 {
		t.Fatalf("saved cell %v aliases the engine's C", cells[0].Data)
	}
}
