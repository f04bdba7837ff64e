package partition

import (
	"bytes"
	"strings"
	"testing"
)

// paperSquareCorner is the exact Figure 1a layout from Section IV.
func paperSquareCorner(t *testing.T) *Layout {
	t.Helper()
	l, err := FromArrays(16, 3, 3, 3,
		[]int{0, 1, 1, 1, 1, 1, 1, 1, 2},
		[]int{9, 3, 4},
		[]int{9, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestValidateAcceptsPaperExample(t *testing.T) {
	l := paperSquareCorner(t)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Layout {
		return &Layout{
			N: 16, P: 3, GridRows: 3, GridCols: 3,
			Owner:      []int{0, 1, 1, 1, 1, 1, 1, 1, 2},
			RowHeights: []int{9, 3, 4},
			ColWidths:  []int{9, 3, 4},
		}
	}
	mutations := []struct {
		name string
		mut  func(*Layout)
	}{
		{"zero N", func(l *Layout) { l.N = 0 }},
		{"zero P", func(l *Layout) { l.P = 0 }},
		{"zero grid", func(l *Layout) { l.GridRows = 0 }},
		{"short owner", func(l *Layout) { l.Owner = l.Owner[:8] }},
		{"short heights", func(l *Layout) { l.RowHeights = l.RowHeights[:2] }},
		{"short widths", func(l *Layout) { l.ColWidths = l.ColWidths[:2] }},
		{"heights sum", func(l *Layout) { l.RowHeights = []int{9, 3, 3} }},
		{"widths sum", func(l *Layout) { l.ColWidths = []int{9, 3, 5} }},
		{"zero height", func(l *Layout) { l.RowHeights = []int{9, 0, 7} }},
		{"owner out of range", func(l *Layout) { l.Owner[0] = 5 }},
		{"negative owner", func(l *Layout) { l.Owner[0] = -1 }},
		{"unowned processor", func(l *Layout) { l.Owner[8] = 1 }}, // P2 loses its only cell
		// Inputs read from a file: a huge P must be an error before any
		// allocation sized by it, and heights must not sum to N by wrapping.
		{"P beyond the cell count", func(l *Layout) { l.P = 1 << 62 }},
		{"heights overflow to N", func(l *Layout) {
			*l = Layout{N: 4, P: 1, GridRows: 5, GridCols: 1,
				Owner:      []int{0, 0, 0, 0, 0},
				RowHeights: []int{1 << 62, 1 << 62, 1 << 62, 1 << 62, 4},
				ColWidths:  []int{4}}
		}},
		{"N² overflows", func(l *Layout) {
			*l = Layout{N: 1 << 32, P: 1, GridRows: 1, GridCols: 1,
				Owner: []int{0}, RowHeights: []int{1 << 32}, ColWidths: []int{1 << 32}}
		}},
	}
	for _, m := range mutations {
		l := base()
		m.mut(l)
		if err := l.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", m.name)
		}
	}
}

func TestOwnerAtAndStarts(t *testing.T) {
	l := paperSquareCorner(t)
	if l.OwnerAt(0, 0) != 0 || l.OwnerAt(2, 2) != 2 || l.OwnerAt(1, 1) != 1 {
		t.Fatal("OwnerAt wrong")
	}
	if l.RowStart(0) != 0 || l.RowStart(1) != 9 || l.RowStart(2) != 12 {
		t.Fatal("RowStart wrong")
	}
	if l.ColStart(2) != 12 {
		t.Fatal("ColStart wrong")
	}
}

func TestAreasPaperExample(t *testing.T) {
	l := paperSquareCorner(t)
	areas := l.Areas()
	// P0: 9×9 = 81; P2: 4×4 = 16; P1: the remaining 159.
	if areas[0] != 81 || areas[1] != 159 || areas[2] != 16 {
		t.Fatalf("areas = %v", areas)
	}
	if areas[0]+areas[1]+areas[2] != 256 {
		t.Fatal("areas must sum to N²")
	}
}

func TestOwnsInRowCol(t *testing.T) {
	l := paperSquareCorner(t)
	if !l.OwnsInRow(0, 0) || !l.OwnsInRow(1, 0) || l.OwnsInRow(2, 0) {
		t.Fatal("OwnsInRow wrong for grid row 0")
	}
	if !l.OwnsInCol(2, 2) || l.OwnsInCol(2, 0) {
		t.Fatal("OwnsInCol wrong")
	}
	// Grid row 1 is fully owned by P1 (the paper's special no-comm case).
	if l.OwnsInRow(0, 1) || !l.OwnsInRow(1, 1) || l.OwnsInRow(2, 1) {
		t.Fatal("grid row 1 should be P1-only")
	}
}

func TestRowColProcs(t *testing.T) {
	l := paperSquareCorner(t)
	if got := l.RowProcs(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("RowProcs(0) = %v", got)
	}
	if got := l.RowProcs(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("RowProcs(1) = %v", got)
	}
	if got := l.ColProcs(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ColProcs(2) = %v", got)
	}
}

func TestCoveringRectAndHalfPerimeter(t *testing.T) {
	l := paperSquareCorner(t)
	// P0 covers rows [0,9) cols [0,9).
	if h, w := l.CoveringRect(0); h != 9 || w != 9 {
		t.Fatalf("P0 covering = %dx%d", h, w)
	}
	// P1's L-shape covers the whole matrix.
	if h, w := l.CoveringRect(1); h != 16 || w != 16 {
		t.Fatalf("P1 covering = %dx%d", h, w)
	}
	if h, w := l.CoveringRect(2); h != 4 || w != 4 {
		t.Fatalf("P2 covering = %dx%d", h, w)
	}
	if got := l.HalfPerimeter(0); got != 18 {
		t.Fatalf("P0 half-perimeter = %d", got)
	}
	if got := l.TotalHalfPerimeter(); got != 18+32+8 {
		t.Fatalf("total half-perimeter = %d", got)
	}
}

func TestCoveringRectMissingRank(t *testing.T) {
	l := paperSquareCorner(t)
	l.P = 4 // rank 3 exists but owns nothing (invalid layout, defensive path)
	if h, w := l.CoveringRect(3); h != 0 || w != 0 {
		t.Fatalf("missing rank covering = %dx%d", h, w)
	}
}

func TestCommVolumesPaperExample(t *testing.T) {
	l := paperSquareCorner(t)
	vol := l.CommVolumes()
	// Horizontal (A): row 0 has procs {0,1}: P0 receives 9×3+9×4=63,
	// P1 receives 9×9=81. Row 1 is P1-only: no comm. Row 2 procs {1,2}:
	// P1 receives 4×4=16, P2 receives 4×9+4×3=48.
	// Vertical (B) is symmetric: P0 +63, P1 +81+16, P2 +48.
	want := []int{126, 194, 96}
	for r, w := range want {
		if vol[r] != w {
			t.Fatalf("comm volumes = %v, want %v", vol, want)
		}
	}
}

func TestCommVolumesOneD(t *testing.T) {
	l, err := FromArrays(16, 3, 1, 3,
		[]int{0, 1, 2},
		[]int{16},
		[]int{8, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	vol := l.CommVolumes()
	// Horizontal: the single row has all three processors; each receives
	// the others' cells: P0: 16*(5+3)=128, P1: 16*(8+3)=176, P2: 16*13=208.
	// Vertical: each column owned by a single processor → no comm.
	if vol[0] != 128 || vol[1] != 176 || vol[2] != 208 {
		t.Fatalf("1D comm volumes = %v", vol)
	}
}

func TestRender(t *testing.T) {
	l := paperSquareCorner(t)
	pic := l.Render(16)
	lines := strings.Split(strings.TrimSpace(pic), "\n")
	if len(lines) != 16 || len(lines[0]) != 16 {
		t.Fatalf("render shape wrong: %d lines", len(lines))
	}
	if lines[0][0] != '0' || lines[15][15] != '2' || lines[10][10] != '1' {
		t.Fatalf("render content wrong:\n%s", pic)
	}
	// Degenerate cell counts clamp.
	if p := l.Render(0); !strings.Contains(p, "0") {
		t.Fatal("Render(0) should fall back to a sane default")
	}
	if p := l.Render(100); len(strings.Split(strings.TrimSpace(p), "\n")) != 16 {
		t.Fatal("Render clamps to N rows")
	}
}

func TestEqual(t *testing.T) {
	a := paperSquareCorner(t)
	b := paperSquareCorner(t)
	if !Equal(a, b) {
		t.Fatal("identical layouts must be Equal")
	}
	b.Owner[4] = 2
	if Equal(a, b) {
		t.Fatal("owner change must break equality")
	}
	c := paperSquareCorner(t)
	c.RowHeights[0], c.RowHeights[1] = 8, 4
	if Equal(a, c) {
		t.Fatal("height change must break equality")
	}
	d := paperSquareCorner(t)
	d.N = 17
	if Equal(a, d) {
		t.Fatal("N change must break equality")
	}
}

func TestFromArraysRejectsInvalid(t *testing.T) {
	if _, err := FromArrays(16, 3, 3, 3, []int{0}, []int{9, 3, 4}, []int{9, 3, 4}); err == nil {
		t.Fatal("short subp must fail")
	}
}

func TestSubpArraysRoundTrip(t *testing.T) {
	l := paperSquareCorner(t)
	lda, ldb, subp, subph, subpw := l.SubpArrays()
	back, err := FromArrays(l.N, l.P, lda, ldb, subp, subph, subpw)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(l, back) {
		t.Fatal("SubpArrays/FromArrays round trip broken")
	}
	// Returned slices are copies.
	subp[0] = 99
	if l.Owner[0] == 99 {
		t.Fatal("SubpArrays must copy")
	}
}

func TestSaveLoadLayout(t *testing.T) {
	l := paperSquareCorner(t)
	var buf bytes.Buffer
	if err := SaveLayout(&buf, l); err != nil {
		t.Fatal(err)
	}
	// The paper's field names appear on disk.
	for _, field := range []string{"subp", "subph", "subpw", "subplda", "subpldb"} {
		if !strings.Contains(buf.String(), field) {
			t.Fatalf("serialized layout missing %q", field)
		}
	}
	back, err := LoadLayout(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(l, back) {
		t.Fatal("layout round trip broken")
	}
}

func TestSaveLayoutRejectsInvalid(t *testing.T) {
	bad := paperSquareCorner(t)
	bad.N = 17
	var buf bytes.Buffer
	if err := SaveLayout(&buf, bad); err == nil {
		t.Fatal("invalid layout must not serialize")
	}
}

func TestLoadLayoutErrors(t *testing.T) {
	if _, err := LoadLayout(strings.NewReader("junk")); err == nil {
		t.Fatal("bad json must fail")
	}
	if _, err := LoadLayout(strings.NewReader(`{"n":4,"p":1,"subplda":1,"subpldb":1,"subp":[0],"subph":[3],"subpw":[4]}`)); err == nil {
		t.Fatal("inconsistent arrays must fail validation")
	}
}
