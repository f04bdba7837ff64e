package recover

import "testing"

func TestBindingRestoreByCoverage(t *testing.T) {
	// Epoch-0 layout wrote two horizontally adjacent 4×4 cells.
	b := &Binding{cells: []Cell{
		{Row: 0, Col: 0, H: 4, W: 4},
		{Row: 0, Col: 4, H: 4, W: 4},
	}}
	// The replanned layout asks for a 4×8 cell spanning both: fully
	// covered, restored from the two pieces.
	if !b.Restore(0, 0, 4, 8) {
		t.Fatal("fully covered cell not restored")
	}
	// A cell reaching past the checkpointed region must not restore.
	if b.Restore(0, 0, 5, 8) {
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
	b.Save(0, 0, 4, 6)
	b.Save(0, 4, 4, 4)
	if !b.Restore(0, 0, 4, 8) {
		t.Fatal("overlapping cover not recognized")
	}
	// Shift the target one row past the covered band: exact subtraction
	// must notice the gap that area arithmetic cannot.
	if b.Restore(1, 0, 4, 8) {
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

// TestCoverageCheckAllocatesNothing: once a Binding's scratch lists have
// grown, the coverage check behind every Save and Restore allocates nothing.
func TestCoverageCheckAllocatesNothing(t *testing.T) {
	b := new(Binding)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			b.Save(8*r, 8*c, 8, 8)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if !b.Restore(6, 6, 20, 20) || b.Restore(6, 6, 27, 20) {
			t.Fatal("coverage misjudged")
		}
	}); allocs != 0 {
		t.Fatalf("a coverage check allocates %.1f times", allocs)
	}
}

// TestMemStoreViewsItsBinding pins the benchmark module's view: a MemStore
// loads exactly the cells of the Binding made with it.
func TestMemStoreViewsItsBinding(t *testing.T) {
	store := NewMemStore()
	if cells, err := store.Load("ladder"); err != nil || len(cells) != 0 {
		t.Fatalf("before NewBinding: %d cells, err %v", len(cells), err)
	}
	b, err := NewBinding(store, "ladder")
	if err != nil {
		t.Fatal(err)
	}
	b.Save(0, 0, 2, 2)
	b.Save(0, 2, 2, 1)
	cells, err := store.Load("ladder")
	if err != nil || len(cells) != 2 || cells[1] != (Cell{Row: 0, Col: 2, H: 2, W: 1}) {
		t.Fatalf("Load = %+v, err %v; want the Binding's two cells", cells, err)
	}
}
