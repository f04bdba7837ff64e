package partition

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockCyclicBlocks(t *testing.T) {
	// Classic SUMMA: 10 elements over a 3×2 grid, one block per processor
	// row and column — rows [0,4) [4,7) [7,10), the first blocks taking the
	// remainder.
	l, err := BlockCyclic(10, 3, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h := l.RowHeights; h[0] != 4 || h[1] != 3 || h[2] != 3 {
		t.Fatalf("block rows %v", h)
	}
	if l.P != 6 || l.OwnerAt(0, 0) != 0 || l.OwnerAt(0, 1) != 1 || l.OwnerAt(2, 1) != 5 {
		t.Fatalf("SUMMA owners %v", l.Owner)
	}
	// Block-cyclic: 6×6 blocks of 4 over a 2×3 grid; rank (1,2) = 5 owns
	// block rows {1,3,5} and block columns {2,5}.
	l, err = BlockCyclic(24, 2, 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if l.RowHeights[i] != 4 || l.ColWidths[i] != 4 {
			t.Fatalf("block sizes %v × %v", l.RowHeights, l.ColWidths)
		}
		for j := 0; j < 6; j++ {
			if mine := i%2 == 1 && j%3 == 2; mine != (l.OwnerAt(i, j) == 5) {
				t.Fatalf("block (%d,%d) owner %d", i, j, l.OwnerAt(i, j))
			}
		}
	}
	if got, want := l.Areas()[5], 3*4*2*4; got != want {
		t.Fatalf("rank 5 area %d, want %d", got, want)
	}
	// SUMMA on a 1×3 grid is the paper's 1D rectangle at equal speeds.
	summa, err := BlockCyclic(384, 1, 3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	oneD, err := Build(OneDRectangle, 384, []int{384 * 128, 384 * 128, 384 * 128})
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(summa, oneD) {
		t.Fatalf("1×3 SUMMA %+v differs from the equal 1D rectangle %+v", summa, oneD)
	}
}

func TestBlockCyclicValidation(t *testing.T) {
	for _, c := range []struct {
		name                string
		n, pr, pc, rbs, cbs int
	}{
		{"empty grid", 8, 0, 1, 1, 1},
		{"negative grid", 8, 2, -1, 2, 2},
		{"too few block rows", 8, 2, 2, 1, 2},
		{"too few block columns", 8, 2, 2, 2, 1},
		{"N below block rows", 4, 2, 2, 5, 2},
		{"N below block columns", 4, 2, 2, 2, 5},
		{"zero N", 0, 1, 1, 1, 1},
	} {
		if _, err := BlockCyclic(c.n, c.pr, c.pc, c.rbs, c.cbs); err == nil {
			t.Errorf("%s: BlockCyclic(%d, %d, %d, %d, %d) should fail", c.name, c.n, c.pr, c.pc, c.rbs, c.cbs)
		}
	}
}

// Property: a rank (pi, pj) of a block-cyclic layout receives exactly the
// rest of every block row it holds (when its processor row has company)
// and the rest of every block column it holds (when its processor column
// has company): H_r·(N−W_c)·[pc>1] + W_c·(N−H_r)·[pr>1], with H_r its owned
// rows and W_c its owned columns.
func TestQuickBlockCyclicCommVolumes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr, pc := rng.Intn(4)+1, rng.Intn(4)+1
		rbs, cbs := pr+rng.Intn(9), pc+rng.Intn(9)
		n := max(rbs, cbs) + rng.Intn(100)
		l, err := BlockCyclic(n, pr, pc, rbs, cbs)
		if err != nil {
			t.Logf("BlockCyclic(%d, %d, %d, %d, %d): %v", n, pr, pc, rbs, cbs, err)
			return false
		}
		vol := l.CommVolumes()
		for r := 0; r < l.P; r++ {
			h, w := 0, 0
			for i, hi := range l.RowHeights {
				if i%pr == r/pc {
					h += hi
				}
			}
			for j, wj := range l.ColWidths {
				if j%pc == r%pc {
					w += wj
				}
			}
			want := 0
			if pc > 1 {
				want += h * (n - w)
			}
			if pr > 1 {
				want += w * (n - h)
			}
			if vol[r] != want {
				t.Logf("N=%d %dx%d grid, %dx%d blocks: rank %d volume %d, want %d", n, pr, pc, rbs, cbs, r, vol[r], want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// summaLayout is classic SUMMA's block distribution of n over a pr×pc grid:
// one block per processor row and column.
func summaLayout(t *testing.T, n, pr, pc int) *Layout {
	t.Helper()
	l, err := BlockCyclic(n, pr, pc, pr, pc)
	if err != nil {
		t.Fatalf("BlockCyclic(%d, %d, %d, %d, %d): %v", n, pr, pc, pr, pc, err)
	}
	return l
}

func TestBlockRange(t *testing.T) {
	// 10 elements over 3 blocks: sizes 4, 3, 3, on the row side of a 3×1
	// grid and the column side of a 1×3 grid alike.
	rows, cols := summaLayout(t, 10, 3, 1), summaLayout(t, 10, 1, 3)
	for _, c := range [][3]int{{0, 0, 4}, {1, 4, 7}, {2, 7, 10}} {
		if s, e := rows.RowStart(c[0]), rows.RowStart(c[0])+rows.RowHeights[c[0]]; s != c[1] || e != c[2] {
			t.Fatalf("block row %d of 10 over 3 = [%d,%d), want [%d,%d)", c[0], s, e, c[1], c[2])
		}
		if s, e := cols.ColStart(c[0]), cols.ColStart(c[0])+cols.ColWidths[c[0]]; s != c[1] || e != c[2] {
			t.Fatalf("block column %d of 10 over 3 = [%d,%d), want [%d,%d)", c[0], s, e, c[1], c[2])
		}
	}
	even := summaLayout(t, 6, 3, 1)
	if s, e := even.RowStart(1), even.RowStart(1)+even.RowHeights[1]; s != 2 || e != 4 {
		t.Fatalf("even block row 1 of 6 over 3 = [%d,%d), want [2,4)", s, e)
	}
}

func TestOwnerOf(t *testing.T) {
	// 10 elements over 3 blocks: [0,4) [4,7) [7,10); on a 3×1 grid block
	// row b is rank b's.
	l := summaLayout(t, 10, 3, 1)
	for _, c := range [][3]int{{0, 0, 4}, {3, 0, 4}, {4, 1, 7}, {9, 2, 10}} {
		b := 0
		for b+1 < l.GridRows && l.RowStart(b+1) <= c[0] {
			b++
		}
		if end := l.RowStart(b) + l.RowHeights[b]; b != c[1] || end != c[2] {
			t.Fatalf("row %d of 10 over 3 lies in block %d ending at %d, want (%d,%d)", c[0], b, end, c[1], c[2])
		}
		if o := l.OwnerAt(b, 0); o != c[1] {
			t.Fatalf("block row %d owned by rank %d, want %d", b, o, c[1])
		}
	}
	// On a 2×3 grid block (I, J) is rank I·3 + J.
	g := summaLayout(t, 12, 2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if o := g.OwnerAt(i, j); o != i*3+j {
				t.Fatalf("2×3 block (%d,%d) owned by rank %d, want %d", i, j, o, i*3+j)
			}
		}
	}
}

func TestLocalDist(t *testing.T) {
	// 6 blocks of 4 over a 2x3 grid: rank (1,2) = 5 owns block rows
	// {1,3,5} and block cols {2,5}, 12 rows by 8 columns in all.
	l, err := BlockCyclic(24, 2, 3, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	var rows, cols []int
	h, w := 0, 0
	for i := 0; i < l.GridRows; i++ {
		if l.OwnsInRow(5, i) {
			rows = append(rows, i)
			h += l.RowHeights[i]
		}
	}
	for j := 0; j < l.GridCols; j++ {
		if l.OwnsInCol(5, j) {
			cols = append(cols, j)
			w += l.ColWidths[j]
		}
	}
	if len(rows) != 3 || rows[0] != 1 || rows[1] != 3 || rows[2] != 5 {
		t.Fatalf("block rows: %v", rows)
	}
	if len(cols) != 2 || cols[0] != 2 || cols[1] != 5 {
		t.Fatalf("block cols: %v", cols)
	}
	if h != 12 || w != 8 || l.Areas()[5] != h*w {
		t.Fatalf("local dims %dx%d, area %d", h, w, l.Areas()[5])
	}
}
