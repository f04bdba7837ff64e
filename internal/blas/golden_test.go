package blas_test

import (
	"math/rand"
	"testing"

	"repro/internal/balance"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/partition"
)

// Digests of products made by the 4×8 AVX2 kernel that the 8×8 tile
// replaced. The rounding contract (package comment) makes them independent
// of the tile and the body, so every body, and the noasm build, must still
// give them.
const (
	goldenDgemm    = "8d9c1f8306fdc497"
	goldenMultiply = "961bcd1f4b191a07"
)

// One Dgemm with fringes in all three dimensions (m past MC, n past NC and
// not a multiple of the tile, k past KC), padded strides, α = 1.7, β = 0.3.
func TestGoldenDgemmDigest(t *testing.T) {
	blas.RunBodies(t, func(t *testing.T) {
		const m, n, k = 261, 521, 259
		lda, ldb, ldc := k+3, n+1, n+2
		a, b, c := operand(m, lda, 1), operand(k, ldb, 2), operand(m, ldc, 3)
		if err := blas.Dgemm(m, n, k, 1.7, a.Data, lda, b.Data, ldb, 0.3, c.Data, ldc); err != nil {
			t.Fatal(err)
		}
		c.Cols = n
		if got := matrix.Digest(c); got != goldenDgemm {
			t.Errorf("digest %s, want %s", got, goldenDgemm)
		}
	})
}

// One core.Multiply per paper shape, N = 257, speeds 1 : 2 : 0.9.
func TestGoldenMultiplyDigests(t *testing.T) {
	blas.RunBodies(t, func(t *testing.T) {
		const n = 257
		rng := rand.New(rand.NewSource(41))
		a, b := matrix.Random(n, n, rng), matrix.Random(n, n, rng)
		areas, err := balance.Proportional(n*n, []float64{1.0, 2.0, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range partition.Shapes {
			l, err := partition.Build(sh, n, areas)
			if err != nil {
				t.Fatal(err)
			}
			c := matrix.New(n, n)
			if _, err := core.Multiply(a, b, c, core.Config{Layout: l}); err != nil {
				t.Fatal(err)
			}
			if got := matrix.Digest(c); got != goldenMultiply {
				t.Errorf("%s: digest %s, want %s", sh, got, goldenMultiply)
			}
		}
	})
}

// operand returns a rows×stride random matrix, padding included, seeded.
func operand(rows, stride int, seed int64) *matrix.Dense {
	return matrix.Random(rows, stride, rand.New(rand.NewSource(seed)))
}
