//go:build !race

package matrix

import "testing"

// TestMatrixDigestAllocs: the digest allocates nothing but its string.
func TestMatrixDigestAllocs(t *testing.T) {
	m := Indexed(64, 64)
	if got := testing.AllocsPerRun(20, func() { Digest(m) }); got > 1 {
		t.Errorf("Digest: %v allocs per call, want at most 1 (the string)", got)
	}
}
