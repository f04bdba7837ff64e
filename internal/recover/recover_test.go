package recover

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/slab"
)

func cellAt(r, c, h, w int, fill float64) Cell {
	data := make([]float64, h*w)
	for i := range data {
		data[i] = fill + float64(i)
	}
	return Cell{Row: r, Col: c, H: h, W: w, Data: data}
}

func testStores(t *testing.T) map[string]CheckpointStore {
	t.Helper()
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]CheckpointStore{"mem": NewMemStore(), "file": fs}
}

func TestStoreRoundtrip(t *testing.T) {
	for name, store := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			// Saved out of order; Load must return deterministic row-major
			// order and survive a Clear of an unrelated job.
			for _, c := range []Cell{cellAt(8, 0, 4, 4, 100), cellAt(0, 0, 4, 8, 0), cellAt(0, 8, 4, 4, 50)} {
				if err := store.Save("job-a", c); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Clear("job-b"); err != nil {
				t.Fatal(err)
			}
			cells, err := store.Load("job-a")
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != 3 {
				t.Fatalf("loaded %d cells, want 3", len(cells))
			}
			if cells[0].Row != 0 || cells[0].Col != 0 || cells[1].Col != 8 || cells[2].Row != 8 {
				t.Fatalf("order not deterministic: %v %v %v",
					cells[0].Key(), cells[1].Key(), cells[2].Key())
			}
			for i, v := range cells[0].Data {
				if v != float64(i) {
					t.Fatalf("payload corrupted at %d: %g", i, v)
				}
			}
			if err := store.Clear("job-a"); err != nil {
				t.Fatal(err)
			}
			cells, err = store.Load("job-a")
			if err != nil || len(cells) != 0 {
				t.Fatalf("after Clear: %d cells, err %v", len(cells), err)
			}
		})
	}
}

// TestMemStoreKeepsCallersSlice pins CheckpointStore.Save's ownership
// contract on the in-memory store: the cell's data is kept, not copied, so a
// checkpointed cell costs one copy (Binding.Save's, out of C) instead of two.
func TestMemStoreKeepsCallersSlice(t *testing.T) {
	store := NewMemStore()
	c := cellAt(0, 0, 2, 3, 5)
	if err := store.Save("j", c); err != nil {
		t.Fatal(err)
	}
	cells, err := store.Load("j")
	if err != nil || len(cells) != 1 {
		t.Fatalf("loaded %d cells, err %v", len(cells), err)
	}
	if &cells[0].Data[0] != &c.Data[0] {
		t.Fatal("MemStore copied the cell's data instead of keeping it")
	}
	b, err := NewBinding(store, "j")
	if err != nil {
		t.Fatal(err)
	}
	src := []float64{1, 2, 3, 4}
	b.Save(4, 4, 2, 2, src, 2)
	cells, _ = store.Load("j")
	if got := cells[1].Data; &got[0] == &src[0] || got[3] != 4 {
		t.Fatalf("binding saved %v aliasing the engine's C", got)
	}
}

// TestFileStoreBytesUnchanged: the SGC2 file a cell is written as is
// byte-for-byte what earlier builds wrote (golden bytes), so the ownership
// change in Save touches no on-disk format.
func TestFileStoreBytesUnchanged(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := Cell{Row: 2, Col: 3, H: 1, W: 2, Data: []float64{1.5, -0.25}}
	if err := fs.Save("j", c); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fs.jobDir("j"), c.Key()+".ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := hex.DecodeString("5347433202000000030000000100000002000000000000000000f83f000000000000d0bf6b318130")
	if !bytes.Equal(got, want) {
		t.Fatalf("cell file\n got %x\nwant %x", got, want)
	}
}

func TestStoreRejectsInvalidCell(t *testing.T) {
	for name, store := range testStores(t) {
		t.Run(name, func(t *testing.T) {
			bad := Cell{Row: 0, Col: 0, H: 2, W: 2, Data: make([]float64, 3)}
			if err := store.Save("j", bad); err == nil {
				t.Fatal("saved a cell with mismatched payload length")
			}
		})
	}
}

func TestFileStoreSkipsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Save("j", cellAt(0, 0, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	// Plant a truncated and a garbage cell file alongside the good one.
	jobDir := fs.jobDir("j")
	if err := os.WriteFile(filepath.Join(jobDir, "2_0_2_2.ckpt"), []byte("SGC1trunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "4_0_2_2.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	cells, err := fs.Load("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Key() != "0_0_2_2" {
		t.Fatalf("corrupt files not skipped: %d cells", len(cells))
	}
}

// TestFileStoreFlipAByteRecomputesNotRestores pins the CRC footer's
// promise: a checkpoint file with a single flipped payload byte still has
// the right magic, the right length, and decodable floats — without the
// footer it would be restored as ground truth. The footer must instead demote it to
// "never checkpointed", so recovery recomputes the cell.
func TestFileStoreFlipAByteRecomputesNotRestores(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := cellAt(0, 0, 4, 4, 7)
	if err := fs.Save("j", good); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(fs.jobDir("j"), good.Key()+".ckpt")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit mid-payload: length and header stay perfectly valid.
	buf[20+8*5] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	cells, err := fs.Load("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("flipped-byte cell restored as truth: %d cells (data[5] = %g)",
			len(cells), cells[0].Data[5])
	}
}

// TestFileStoreSkipsLegacyV1: a footerless "SGC1" file of an earlier build
// — otherwise well formed — is skipped like any corrupt cell: Load returns
// no cell and no error.
func TestFileStoreSkipsLegacyV1(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fs.jobDir("j"), 0o755); err != nil {
		t.Fatal(err)
	}
	cell := cellAt(0, 0, 2, 2, 3)
	v1 := encodeCell(cell)
	v1 = v1[:len(v1)-4] // strip the footer…
	copy(v1, "SGC1")    // …and stamp the old magic
	if err := os.WriteFile(filepath.Join(fs.jobDir("j"), cell.Key()+".ckpt"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	cells, err := fs.Load("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("legacy SGC1 cell loaded: %d cells", len(cells))
	}
}

// TestFileStoreSkipsWrappingDims: a 24-byte cell file whose header claims
// h = w = 2³¹ carries a valid footer, and 8·h·w wraps to 0 on 64-bit ints,
// so a length check built on that product passes an empty payload. Load
// must skip the file, not panic allocating h·w elements.
func TestFileStoreSkipsWrappingDims(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fs.jobDir("j"), 0o755); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 24)
	copy(buf, fileMagic)
	binary.LittleEndian.PutUint32(buf[12:], 1<<31)
	binary.LittleEndian.PutUint32(buf[16:], 1<<31)
	binary.LittleEndian.PutUint32(buf[20:], crc32.Checksum(buf[:20], castagnoli))
	if err := os.WriteFile(filepath.Join(fs.jobDir("j"), "0_0_1_1.ckpt"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	cells, err := fs.Load("j")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("cell with wrapping dimensions loaded: %d cells", len(cells))
	}
}

// FuzzDecodeCell: no byte string panics the SGC2 reader, and every string
// it accepts is exactly the encoding of the cell it returns.
func FuzzDecodeCell(f *testing.F) {
	f.Add(encodeCell(cellAt(0, 0, 1, 1, 0)))
	f.Add(encodeCell(cellAt(2, 3, 1, 2, 1.5)))
	f.Add(encodeCell(cellAt(8, 0, 3, 4, -7)))
	f.Add([]byte("SGC2"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		cell, err := decodeCell(buf)
		if err != nil {
			return
		}
		if got := encodeCell(cell); !bytes.Equal(got, buf) {
			t.Fatalf("decoded %s re-encodes to\n%x\nnot\n%x", cell.Key(), got, buf)
		}
	})
}

func TestBindingRestoreByCoverage(t *testing.T) {
	store := NewMemStore()
	// Epoch-0 layout wrote two horizontally adjacent 4×4 cells.
	store.Save("j", cellAt(0, 0, 4, 4, 0))
	store.Save("j", cellAt(0, 4, 4, 4, 100))
	b, err := NewBinding(store, "j")
	if err != nil {
		t.Fatal(err)
	}
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
	store := NewMemStore()
	b, err := NewBinding(store, "j")
	if err != nil {
		t.Fatal(err)
	}
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

func TestBindingSaveThenRestoreAcrossBindings(t *testing.T) {
	store := NewMemStore()
	b1, _ := NewBinding(store, "j")
	src := []float64{1, 2, 3, 4}
	b1.Save(2, 2, 2, 2, src, 2)
	if err := b1.Err(); err != nil {
		t.Fatal(err)
	}
	// A fresh binding — the recovery attempt — sees the persisted cell.
	b2, err := NewBinding(store, "j")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4)
	if !b2.Restore(2, 2, 2, 2, dst, 2) {
		t.Fatal("persisted cell not visible to a new binding")
	}
	for i, v := range dst {
		if v != src[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, v, src[i])
		}
	}
}

func TestReplanShapePolicy(t *testing.T) {
	// Three survivors: the exact minimum-communication search applies.
	layout, shape, err := Replan(48, []float64{1, 2, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if layout.P != 3 || layout.N != 48 {
		t.Fatalf("layout = P%d N%d", layout.P, layout.N)
	}
	if shape == "" || shape == "column-based" {
		t.Fatalf("3 survivors should get an optimal shape, got %q", shape)
	}
	// Two survivors: column-based is the only family.
	layout, shape, err = Replan(48, []float64{3, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if layout.P != 2 || shape != "column-based" {
		t.Fatalf("2 survivors: shape %q P %d", shape, layout.P)
	}
	// Sole survivor: one cell owns everything.
	layout, _, err = Replan(48, []float64{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if layout.P != 1 || layout.Areas()[0] != 48*48 {
		t.Fatalf("sole survivor areas = %v", layout.Areas())
	}
	// Every replan must cover C exactly.
	layout, _, _ = Replan(30, []float64{5, 1, 1, 1}, 0)
	total := 0
	for _, a := range layout.Areas() {
		total += a
	}
	if total != 30*30 {
		t.Fatalf("areas sum %d != %d", total, 30*30)
	}
	if _, _, err := Replan(10, nil, 0); err == nil {
		t.Fatal("no survivors must be an error")
	}
}

// TestReplanThreeSurvivorsAtMaxN: three survivors replan with the exact
// shape search, which must not hold a recovering job for long even at
// serve's largest N (-max-n, 4096).
func TestReplanThreeSurvivorsAtMaxN(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		layout, shape, err := Replan(4096, []float64{1, 2, 0.9}, 0)
		if err == nil && (layout.P != 3 || shape == "column-based") {
			err = fmt.Errorf("replan gave %q over %d ranks, want an exact three-rank shape", shape, layout.P)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a three-survivor replan at N=4096 took over a second")
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

// TestBindingRelease pins Release's ownership rules: once the store is
// cleared, the cells a Binding saved go back to the slab free list (the next
// Get of the same size hands out that very backing array), a second Release
// returns nothing twice, the Binding checkpoints again afterwards, and cells
// it only loaded — another Binding's copies — are never recycled by it.
func TestBindingRelease(t *testing.T) {
	// Sizes no other test in this package checkpoints, in distinct slab
	// classes, so each Get below can only pop what Release returned.
	const h1, w1, h2, w2 = 7, 13, 3, 5
	store := NewMemStore()
	b, err := NewBinding(store, "j")
	if err != nil {
		t.Fatal(err)
	}
	b.Save(0, 0, h1, w1, make([]float64, h1*w1), w1)
	b.Save(h1, 0, h2, w2, make([]float64, h2*w2), w2)
	cells, _ := store.Load("j")
	if len(cells) != 2 {
		t.Fatalf("store holds %d cells, want 2", len(cells))
	}
	saved := map[int]*float64{}
	for _, c := range cells {
		saved[len(c.Data)] = &c.Data[0]
	}

	// A second Binding over the same checkpoint only loaded those cells:
	// releasing it must leave them alone.
	other, err := NewBinding(store, "j")
	if err != nil {
		t.Fatal(err)
	}
	other.Release()
	if other.Restore(0, 0, h1, w1, make([]float64, h1*w1), w1) {
		t.Fatal("a released Binding still restores")
	}
	for n, p := range saved {
		s := slab.Get(n)
		if &s[0] == p {
			t.Fatalf("releasing a Binding that only loaded the %d-element cell recycled it", n)
		}
		slab.Put(s)
	}

	if err := store.Clear("j"); err != nil {
		t.Fatal(err)
	}
	if cells, err := store.Load("j"); err != nil || len(cells) != 0 {
		t.Fatalf("after Clear: %d cells, err %v", len(cells), err)
	}
	b.Release()
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
	if cells, _ := store.Load("j"); len(cells) != 1 {
		t.Fatalf("Save after Release: store holds %d cells, want 1", len(cells))
	}
	if _, computed, redone := b.Stats(); computed != 3 || redone != 0 {
		t.Fatalf("stats computed %d redone %d, want 3 and 0", computed, redone)
	}
}

// TestCoverageCheckAllocatesNothing: once a Binding's scratch lists have
// grown, the coverage check behind every Save and Restore allocates nothing.
func TestCoverageCheckAllocatesNothing(t *testing.T) {
	b, err := NewBinding(NewMemStore(), "j")
	if err != nil {
		t.Fatal(err)
	}
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
