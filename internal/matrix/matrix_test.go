package matrix

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m, err := FromSlice(2, 3, data)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	m.Set(0, 0, 42)
	if data[0] != 42 {
		t.Fatal("FromSlice must not copy the slice")
	}
	if _, err := FromSlice(3, 3, data); err == nil {
		t.Fatal("FromSlice with short slice must fail")
	}
	if _, err := FromSlice(-1, 3, data); err == nil {
		t.Fatal("FromSlice with negative rows must fail")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(5, 7)
	m.Set(2, 3, 1.5)
	if got := m.At(2, 3); got != 1.5 {
		t.Fatalf("At = %v, want 1.5", got)
	}
	if m.Data[2*7+3] != 1.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := Indexed(6, 6)
	v, err := m.View(2, 3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Rows != 3 || v.Cols != 2 || v.Stride != 6 {
		t.Fatalf("bad view: %+v", v)
	}
	if v.At(0, 0) != m.At(2, 3) {
		t.Fatalf("view origin = %v, want %v", v.At(0, 0), m.At(2, 3))
	}
	v.Set(1, 1, -9)
	if m.At(3, 4) != -9 {
		t.Fatal("view writes must propagate to parent")
	}
}

func TestViewBounds(t *testing.T) {
	m := New(4, 4)
	bad := [][4]int{
		{-1, 0, 2, 2}, {0, -1, 2, 2}, {3, 0, 2, 2}, {0, 3, 2, 2}, {0, 0, 5, 1}, {0, 0, 1, 5},
	}
	for _, b := range bad {
		if _, err := m.View(b[0], b[1], b[2], b[3]); err == nil {
			t.Fatalf("View(%v) should fail", b)
		}
	}
	if _, err := m.View(0, 0, 4, 4); err != nil {
		t.Fatalf("full view should succeed: %v", err)
	}
	if _, err := m.View(4, 4, 0, 0); err != nil {
		t.Fatalf("empty corner view should succeed: %v", err)
	}
}

func TestMustViewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustView out of range did not panic")
		}
	}()
	New(2, 2).MustView(0, 0, 3, 3)
}

func TestCloneIndependent(t *testing.T) {
	m := Indexed(3, 3)
	c := m.Clone()
	if !Equal(m, c) {
		t.Fatal("clone differs from source")
	}
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("clone shares storage with source")
	}
}

func TestCloneOfView(t *testing.T) {
	m := Indexed(4, 4)
	v := m.MustView(1, 1, 2, 2)
	c := v.Clone()
	if c.Stride != 2 {
		t.Fatalf("clone of view must be contiguous, stride=%d", c.Stride)
	}
	if c.At(0, 0) != m.At(1, 1) || c.At(1, 1) != m.At(2, 2) {
		t.Fatal("clone of view has wrong elements")
	}
}

func TestZeroAndFillHonourViews(t *testing.T) {
	m := Constant(4, 4, 7)
	v := m.MustView(1, 1, 2, 2)
	v.Zero()
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("view Zero did not clear inner block")
	}
	if m.At(0, 0) != 7 || m.At(3, 3) != 7 || m.At(1, 3) != 7 {
		t.Fatal("view Zero leaked outside the view")
	}
	v.Fill(3)
	if m.At(1, 2) != 3 || m.At(0, 2) != 7 {
		t.Fatal("view Fill wrong")
	}
}

func TestEqualAndApprox(t *testing.T) {
	a := Indexed(3, 4)
	b := a.Clone()
	if !Equal(a, b) || !EqualApprox(a, b, 0) {
		t.Fatal("identical matrices must compare equal")
	}
	b.Set(2, 2, b.At(2, 2)+1e-12)
	if Equal(a, b) {
		t.Fatal("Equal must be exact")
	}
	if !EqualApprox(a, b, 1e-9) {
		t.Fatal("EqualApprox must tolerate small differences")
	}
	if EqualApprox(a, New(3, 3), 1) {
		t.Fatal("EqualApprox must reject shape mismatch")
	}
	b.Set(1, 1, math.NaN())
	if EqualApprox(a, b, 1) || EqualApprox(b, a, 1) || EqualApprox(b, b, 1) {
		t.Fatal("EqualApprox must reject NaN")
	}
	if Equal(a, New(4, 3)) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	b.Set(1, 0, -3)
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MaxAbsDiff shape mismatch must panic")
		}
	}()
	MaxAbsDiff(a, New(2, 3))
}

func TestCopyBlock(t *testing.T) {
	src := Indexed(6, 6)
	dst := New(6, 6)
	sv := src.MustView(1, 2, 3, 2)
	dv := dst.MustView(0, 0, 3, 2)
	if err := CopyBlock(dv, sv, 3, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != src.At(1+i, 2+j) {
				t.Fatalf("CopyBlock wrong at (%d,%d)", i, j)
			}
		}
	}
	if dst.At(3, 0) != 0 || dst.At(0, 2) != 0 {
		t.Fatal("CopyBlock wrote outside target block")
	}
}

func TestCopyBlockShapeErrors(t *testing.T) {
	a, b := New(2, 2), New(3, 3)
	if err := CopyBlock(a, b, 3, 3); err == nil {
		t.Fatal("CopyBlock overflowing dst must fail")
	}
	if err := CopyBlock(b, a, 3, 3); err == nil {
		t.Fatal("CopyBlock overflowing src must fail")
	}
	if err := CopyBlock(a, b, -1, 1); err == nil {
		t.Fatal("CopyBlock negative dims must fail")
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	src := Indexed(5, 5)
	v := src.MustView(1, 1, 3, 2)
	buf := PackBlock(nil, v, 3, 2)
	if len(buf) != 6 {
		t.Fatalf("PackBlock length = %d, want 6", len(buf))
	}
	dst := New(3, 2)
	if err := UnpackBlock(dst, buf, 3, 2); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, v.Clone()) {
		t.Fatal("pack/unpack round trip mismatch")
	}
}

func TestPackBlockAppends(t *testing.T) {
	m := Constant(1, 2, 5)
	buf := []float64{1}
	buf = PackBlock(buf, m, 1, 2)
	if len(buf) != 3 || buf[0] != 1 || buf[1] != 5 {
		t.Fatalf("PackBlock append broken: %v", buf)
	}
}

func TestUnpackBlockErrors(t *testing.T) {
	dst := New(2, 2)
	if err := UnpackBlock(dst, []float64{1, 2}, 2, 2); err == nil {
		t.Fatal("short buffer must fail")
	}
	if err := UnpackBlock(dst, make([]float64, 9), 3, 3); err == nil {
		t.Fatal("oversized block must fail")
	}
}

func TestIdentityMultiplicationFixture(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4) wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, rand.New(rand.NewSource(7)))
	b := Random(4, 4, rand.New(rand.NewSource(7)))
	if !Equal(a, b) {
		t.Fatal("Random with same seed must be deterministic")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("Random element %v outside [-1,1)", v)
		}
	}
}

func TestStringForms(t *testing.T) {
	small := Indexed(2, 2)
	if !strings.Contains(small.String(), "Dense 2x2") {
		t.Fatalf("small String: %q", small.String())
	}
	big := New(100, 100)
	if !strings.Contains(big.String(), "Dense{100x100}") {
		t.Fatalf("big String: %q", big.String())
	}
}

// Property: packing any sub-block and unpacking it into a fresh matrix
// reproduces the sub-block exactly.
func TestQuickPackUnpack(t *testing.T) {
	f := func(seed int64, rows8, cols8, i8, j8 uint8) bool {
		rows := int(rows8%7) + 1
		cols := int(cols8%7) + 1
		m := Random(rows+int(i8%4), cols+int(j8%4), rand.New(rand.NewSource(seed)))
		i, j := int(i8%4), int(j8%4)
		v := m.MustView(i, j, rows, cols)
		buf := PackBlock(nil, v, rows, cols)
		out := New(rows, cols)
		if err := UnpackBlock(out, buf, rows, cols); err != nil {
			return false
		}
		return Equal(out, v.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CopyBlock between random positions preserves the source values.
func TestQuickCopyBlock(t *testing.T) {
	f := func(seed int64, r8, c8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(r8%5) + 1
		cols := int(c8%5) + 1
		src := Random(rows+3, cols+3, rng)
		dst := New(rows+3, cols+3)
		sv := src.MustView(1, 2, rows, cols)
		dv := dst.MustView(2, 1, rows, cols)
		if err := CopyBlock(dv, sv, rows, cols); err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if dst.At(2+i, 1+j) != src.At(1+i, 2+j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
