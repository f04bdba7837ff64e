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
