package partition

import (
	"bytes"
	"testing"
)

// FuzzLoadLayout: for any bytes, LoadLayout returns an error or a layout
// the engine can trust — areas summing to N², owners in [0, P),
// non-negative communication volumes — that survives a save/load round
// trip, and it never panics.
//
//	go test -run '^$' -fuzz FuzzLoadLayout -fuzztime 30s ./internal/partition
func FuzzLoadLayout(f *testing.F) {
	f.Add([]byte(`{"n":16,"p":4611686018427387904,"subplda":3,"subpldb":3,"subp":[0,1,1,1,1,1,1,1,2],"subph":[9,3,4],"subpw":[9,3,4]}`))
	f.Add([]byte(`{"n":4,"p":1,"subplda":5,"subpldb":1,"subp":[0,0,0,0,0],"subph":[4611686018427387904,4611686018427387904,4611686018427387904,4611686018427387904,4],"subpw":[4]}`))
	areas := []int{88, 112, 56} // 16² split 1.1 : 1.4 : 0.7
	for _, build := range []func() (*Layout, error){
		func() (*Layout, error) { return Build(SquareCorner, 16, areas) },
		func() (*Layout, error) { return BlockCyclic(20, 2, 3, 5, 7) },
	} {
		l, err := build()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveLayout(&buf, l); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := LoadLayout(bytes.NewReader(data))
		if err != nil {
			return
		}
		sum := 0
		for _, a := range l.Areas() {
			sum += a
		}
		if sum != l.N*l.N {
			t.Fatalf("areas sum to %d, want N² = %d", sum, l.N*l.N)
		}
		for idx, o := range l.Owner {
			if o < 0 || o >= l.P {
				t.Fatalf("owner[%d] = %d outside [0,%d)", idx, o, l.P)
			}
		}
		for r, v := range l.CommVolumes() {
			if v < 0 {
				t.Fatalf("rank %d comm volume %d", r, v)
			}
		}
		var buf bytes.Buffer
		if err := SaveLayout(&buf, l); err != nil {
			t.Fatalf("a loaded layout must save: %v", err)
		}
		back, err := LoadLayout(&buf)
		if err != nil {
			t.Fatalf("a saved layout must load: %v", err)
		}
		if !Equal(l, back) {
			t.Fatal("save/load round trip changed the layout")
		}
	})
}
