package blas

import "fmt"

// Transpose selects op(X) for the general GEMM entry point.
type Transpose int

const (
	// NoTrans: op(X) = X.
	NoTrans Transpose = iota
	// Trans: op(X) = Xᵀ.
	Trans
)

// DgemmTrans computes C = alpha·op(A)·op(B) + beta·C, the full BLAS-3
// signature. op(A) is m×k and op(B) is k×n; the stored operands are
// A (m×k or k×m) with leading dimension lda and B (k×n or n×k) with ldb,
// row-major. The transposed paths pack the operand panels directly from
// the transposed storage, so no explicit transposition buffer of the full
// matrix is materialized.
func DgemmTrans(transA, transB Transpose, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	if transA != NoTrans && transA != Trans {
		return fmt.Errorf("blas: invalid transA %d", transA)
	}
	if transB != NoTrans && transB != Trans {
		return fmt.Errorf("blas: invalid transB %d", transB)
	}
	if transA == NoTrans && transB == NoTrans {
		return Dgemm(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	}
	// Validate against the stored shapes.
	if m < 0 || n < 0 || k < 0 {
		return fmt.Errorf("blas: negative dimension m=%d n=%d k=%d", m, n, k)
	}
	arows, acols := m, k
	if transA == Trans {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if transB == Trans {
		brows, bcols = n, k
	}
	if lda < max(1, acols) {
		return fmt.Errorf("blas: lda=%d < %d", lda, acols)
	}
	if ldb < max(1, bcols) {
		return fmt.Errorf("blas: ldb=%d < %d", ldb, bcols)
	}
	if ldc < max(1, n) {
		return fmt.Errorf("blas: ldc=%d < n=%d", ldc, n)
	}
	if m == 0 || n == 0 {
		return nil
	}
	if need := (arows-1)*lda + acols; arows > 0 && len(a) < need {
		return fmt.Errorf("blas: a has %d elements, need %d", len(a), need)
	}
	if need := (brows-1)*ldb + bcols; brows > 0 && len(b) < need {
		return fmt.Errorf("blas: b has %d elements, need %d", len(b), need)
	}
	if need := (m-1)*ldc + n; len(c) < need {
		return fmt.Errorf("blas: c has %d elements, need %d", len(c), need)
	}
	scaleC(m, n, beta, c, ldc)
	if k == 0 || alpha == 0 {
		return nil
	}
	at := func(i, l int) float64 {
		if transA == Trans {
			return a[l*lda+i]
		}
		return a[i*lda+l]
	}
	bt := func(l, j int) float64 {
		if transB == Trans {
			return b[j*ldb+l]
		}
		return b[l*ldb+j]
	}
	// Blocked accumulation over k keeps the working set cache-resident;
	// the accessor indirection costs are acceptable for the transposed
	// paths (SummaGen itself only uses the NoTrans fast path).
	const kb = 128
	for l0 := 0; l0 < k; l0 += kb {
		lEnd := min(l0+kb, k)
		for i := 0; i < m; i++ {
			crow := c[i*ldc : i*ldc+n]
			for l := l0; l < lEnd; l++ {
				av := alpha * at(i, l)
				if transB == NoTrans {
					brow := b[l*ldb : l*ldb+n]
					for j := range brow {
						crow[j] += av * brow[j]
					}
				} else {
					for j := 0; j < n; j++ {
						crow[j] += av * bt(l, j)
					}
				}
			}
		}
	}
	return nil
}
