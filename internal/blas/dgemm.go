// Package blas provides the dense kernels SummaGen's local computation
// stage calls in place of the vendor DGEMM routines (Intel MKL, CUBLAS) used
// by the paper's testbed.
//
// Two kernels are provided: a straightforward reference implementation
// used as the correctness oracle, and a cache-blocked, packing,
// multi-goroutine kernel used by default. Both compute the standard
// row-major GEMM update
//
//	C = alpha*A*B + beta*C
//
// with explicit leading dimensions, matching the (m, n, k, lda, ldb, ldc)
// calling convention of the C code in the paper.
//
// The blocked kernel's arithmetic is one contract on every path. After
// C = beta*C, for each panel of blockKC consecutive k (panels counted from
// k = 0), every element gets
//
//	acc = 0; acc = fma(alpha*A[i,l], B[l,j], acc) for l in the panel, in order; C[i,j] += acc
//
// with alpha*A[i,l] rounded once when A is packed. The register-tiled
// micro-kernel does this for one tile of C at a time, in one of three bodies
// chosen once at start-up: on amd64, an AVX-512F assembly body where the CPU
// has AVX-512F and the OS saves ZMM state, which runs an 8×24 tile (three ZMM
// accumulators per row of the tile) wherever eight full rows of C meet three
// full strips of B and an 8×8 tile (one ZMM accumulator per row) elsewhere;
// else an AVX2/FMA assembly body run over an 8×8 tile's two 4×8 halves where
// the CPU has AVX2 and FMA; a math.FMA body over 8×8 tiles everywhere else
// and under the noasm build tag. Fringe tiles go through the 8×8 tile on a
// padded copy. The bodies are bit-identical, and C[i,j] depends only on row
// i of A, column j of B and blockKC: not on m, n, the tile, the body, the
// position of a tile, the number of workers, or how a caller cuts C into
// sub-rectangles. Results differ in the last bits from the unfused 4×4
// kernel of builds before this contract; golden_test.go pins the digests of
// a few products across builds since.
//
// Where C starts at zero (DgemmPacked always, Dgemm when beta is 0), C is
// not zeroed: the first panel stores acc + 0 into C without reading it, and
// later panels add as above. That is the same bits as +0 + acc. For finite
// nonzero acc, ±Inf and NaN, acc + 0 is acc. An FMA chain from +0 ends at
// −0 only when its exact result is a negative value too small to round to
// anything but −0 (fma(−1e−200, 1e−200, +0) is −0), and there acc + 0 gives
// +0, as +0 + acc does; storing acc itself would not.
//
// Both operands reach the micro-kernel in one packed format, the strip. A
// strip is StripWidth (8) rows of A or 8 columns of B stored k-major: the 8
// values of step l follow those of step l-1, so a panel of any run of
// consecutive k is one contiguous sub-slice. Lanes past the last row or
// column of a band are zero. One pair of writers produces it, PackA (which
// also applies alpha) and PackB. Dgemm runs them per call over MC×KC and
// KC×NC panels of its row-major operands. The SummaGen engine runs them once
// per element, when a broadcast panel lands in its working matrices (through
// matrix.Dest), and multiplies those strips in place with DgemmPacked. One
// macro-kernel serves both. The writers follow the micro-kernel's body: with
// the AVX-512 body, assembly (pack_amd64.s) that transposes 8 rows × 8
// columns of A in registers and moves each strip row of B with one 64-byte
// load and store, fringes under a lane mask; with any other body, and in
// every build without it, the Go writers packAGo and packBGo, which define
// the output bit for bit (alpha*A[i,l] is one rounded multiply either way).
//
// The math.FMA body is fast only where the compiler turns math.FMA into one
// instruction (arm64, ppc64le, s390x, riscv64, and amd64 with FMA when the
// assembly is tagged out). On amd64 CPUs without FMA, and on architectures
// with no fused multiply-add, math.FMA is a software routine and the blocked
// kernel runs several times slower than the unfused scalar kernel it
// replaced; the bits are still the same.
package blas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/slab"
)

// Kernel selects a GEMM implementation.
type Kernel int

const (
	// KernelBlocked is the cache-blocked, packed, parallel kernel.
	KernelBlocked Kernel = iota
	// KernelNaive is the triple-loop reference kernel.
	KernelNaive
)

// Blocking parameters for the packed kernel. MC×KC panels of A and KC×NC
// panels of B are packed into contiguous buffers (DgemmPacked's arrive
// packed) as strips of microM rows of A or microN columns of B. The AVX-512
// body updates 8×24 register tiles (24 ZMM accumulators, three B strips per
// call) wherever eight full rows meet three full B strips, and 8×8 tiles (8
// ZMM accumulators) elsewhere; the AVX2 body updates 8×8 tiles as two 4×8
// halves (8 YMM accumulators each). In the 8×24 loop each microM×KC strip of
// A (16 KiB) stays in L1 while it meets every group of three B strips in a
// KC×wideNC block of B (384 KiB), which stays in L2 beside the MC×KC panel of
// A (256 KiB): 640 KiB, inside a 1 MiB L2 as well as the 2 MiB of the Xeon
// this was tuned on. In the 8×8 loop one KC×microN strip of B and one
// microM×KC strip of A (16 KiB each) stay in L1 while a tile runs. MC 64–256,
// KC 128–512 and NC 256–1024 all measured within noise of each other (with
// the 4×8 tile). Holding each A strip in L1 while the B strips pass beat
// holding each group of three B strips (48 KiB, all of L1d) while the A
// strips pass, and bounding the B block to wideNC columns measured no slower
// than passing the whole KC×NC panel (EXPERIMENTS.md "PR 62").
const (
	blockMC = 128 // multiple of microM
	blockKC = 256 // part of the rounding contract: changing it changes the bits
	blockNC = 512 // multiple of microN
	microM  = 8   // the micro-kernel bodies, PackA and PackB are written out
	microN  = 8   // for 8-wide strips; these name the width, they do not set it
	wideN   = 24  // the 8×24 tile's columns: three B strips
	wideNC  = 192 // columns of the B block the 8×24 loop holds in L2; a multiple of wideN
)

// parallelMinWork is the number of multiply-adds a worker must have before
// blockedMul starts one, so two workers start from 8.4 M. Measured on a
// 2-vCPU Xeon VM, where handing a goroutine to an idle P takes 70 µs at best,
// with the AVX-512 body's 8×24 tile in 10 alternated pairs of Dgemm: two
// workers lose to one at 128³ (46 vs 48 GFLOP/s), break even at 160³ (4.1 M
// multiply-adds), win 9 of 10 pairs at 168³ and 8 of 10 at 176³, and every
// pair from 184³ (54 vs 47) and 192³ (56 vs 46) up to 260×180×512 (71 vs
// 43). Two workers from 6.3 M instead read 2.7 % slower on the in-process
// N = 512 multiply (3 of 10 pairs won), whose ranks already keep both CPUs
// busy, so the threshold stays. With the 8×8 tile two workers won 8 of 10
// pairs at 192³; the 4×8 AVX2 tile broke even at 192³.
const parallelMinWork = 1 << 22

func checkGemmArgs(m, n, k, lda, ldb, ldc int, a, b, c []float64) error {
	switch {
	case m < 0 || n < 0 || k < 0:
		return fmt.Errorf("blas: negative dimension m=%d n=%d k=%d", m, n, k)
	case lda < max(1, k):
		return fmt.Errorf("blas: lda=%d < k=%d", lda, k)
	case ldb < max(1, n):
		return fmt.Errorf("blas: ldb=%d < n=%d", ldb, n)
	case ldc < max(1, n):
		return fmt.Errorf("blas: ldc=%d < n=%d", ldc, n)
	}
	if m == 0 || n == 0 {
		return nil
	}
	if need := (m-1)*lda + k; k > 0 && len(a) < need {
		return fmt.Errorf("blas: a has %d elements, need %d", len(a), need)
	}
	if need := (k-1)*ldb + n; k > 0 && len(b) < need {
		return fmt.Errorf("blas: b has %d elements, need %d", len(b), need)
	}
	if need := (m-1)*ldc + n; len(c) < need {
		return fmt.Errorf("blas: c has %d elements, need %d", len(c), need)
	}
	return nil
}

// Dgemm computes C = alpha*A*B + beta*C using the blocked parallel kernel.
// A is m×k with leading dimension lda, B is k×n with ldb, C is m×n with ldc,
// all row-major.
func Dgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	return DgemmKernel(KernelBlocked, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// DgemmKernel is Dgemm with an explicit kernel choice.
func DgemmKernel(kern Kernel, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) error {
	if err := checkGemmArgs(m, n, k, lda, ldb, ldc, a, b, c); err != nil {
		return err
	}
	if m == 0 || n == 0 {
		return nil
	}
	if kern != KernelNaive && kern != KernelBlocked {
		return fmt.Errorf("blas: unknown kernel %d", kern)
	}
	// With beta 0 the blocked kernel's first KC panel stores into C, so C
	// needs no zeroing first (see the package comment).
	store := beta == 0 && kern == KernelBlocked && k > 0 && alpha != 0
	if !store {
		scaleC(m, n, beta, c, ldc)
	}
	if k == 0 || alpha == 0 {
		return nil
	}
	if kern == KernelNaive {
		naiveMul(m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return nil
	}
	blockedMul(m, n, k, alpha, a, lda, b, ldb, c, ldc, store)
	return nil
}

func scaleC(m, n int, beta float64, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
		} else {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// naiveMul adds alpha*A*B to C with an i-k-j loop order (unit-stride inner
// loop over B and C rows). Zeros of A are multiplied like any other value,
// so 0·Inf and 0·NaN reach C as they do in the blocked kernel.
func naiveMul(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		arow := a[i*lda : i*lda+k]
		crow := c[i*ldc : i*ldc+n]
		for l := 0; l < k; l++ {
			av := alpha * arow[l]
			brow := b[l*ldb : l*ldb+n][:len(crow)]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// panelHigh holds the largest packed A and B panel any call has asked for.
var panelHigh [2]atomic.Int64

// getPanel returns a recycled buffer of at least n elements for a packed
// panel of one kind (0 for A, 1 for B). Every request is for the kind's
// high-water size, so the panels of a kind are interchangeable — one size
// class — and the free list holds as many as ran at once: sized per call
// instead, panels spread over a dozen classes whose concurrency peaks each
// arrived in their own time, long after warm-up. The high-water need, not the
// blocking maximum, so a process that only multiplies small matrices never
// pins full-size panels.
func getPanel(kind, n int) []float64 {
	high := &panelHigh[kind]
	for {
		h := high.Load()
		if int64(n) <= h {
			return slab.Get(int(h))
		}
		if high.CompareAndSwap(h, int64(n)) {
			return slab.Get(n)
		}
	}
}

// roundUp rounds n up to a multiple of to.
func roundUp(n, to int) int { return (n + to - 1) / to * to }

// blockedMul adds alpha*A*B to C with the packed kernel, or with store set
// writes it there, sharing the rows of C out to workers when the product is
// large enough to pay for them. Each worker runs the whole serial algorithm
// on its own rows, packing B for itself; any split of the rows gives the
// same bits, see macroKernel. Whether one packed B shared by the workers
// would win is moot for the engine: its operands arrive already packed
// (DgemmPacked), so every worker there reads the one packed B and packs
// nothing. Dgemm itself is left to callers whose operands are row-major, and
// was measured with per-worker packing on two workers only.
func blockedMul(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool) {
	workers := int(min(int64(runtime.GOMAXPROCS(0)), int64(m)*int64(n)*int64(k)/parallelMinWork))
	if workers <= 1 {
		blockedMulRows(m, n, k, alpha, a, lda, b, ldb, c, ldc, store)
		return
	}
	rows := roundUp((m+workers-1)/workers, microM)
	s := splits.Get().(*split)
	s.product = product{m: m, n: n, k: k, alpha: alpha, a: a, lda: lda, b: b, ldb: ldb, c: c, ldc: ldc, store: store}
	s.run((m+rows-1)/rows, rows)
}

// blockedMulRows is the serial MC/KC/NC panel loop around PackA, PackB and
// macroKernel; each packed panel is a run of strips of kc steps. With store
// set, the first KC panel writes C instead of adding to it. The panels are
// separate buffers: one buffer holding both ran a 256³ product 1–4 % slower
// on the 2-vCPU Xeon.
func blockedMulRows(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool) {
	pa := getPanel(0, roundUp(min(m, blockMC), microM)*min(k, blockKC))
	defer slab.Put(pa)
	pb := getPanel(1, min(k, blockKC)*roundUp(min(n, blockNC), microN))
	defer slab.Put(pb)
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			PackB(pb, kc*microN, b[pc*ldb+jc:], ldb, kc, nc)
			for ic := 0; ic < m; ic += blockMC {
				mc := min(blockMC, m-ic)
				PackA(pa, kc*microM, a[ic*lda+pc:], lda, mc, kc, alpha)
				macroKernel(mc, nc, kc, pa, kc*microM, pb, kc*microN, c[ic*ldc+jc:], ldc, store && pc == 0)
			}
		}
	}
}

// StripWidth is the rows of A or columns of B one strip holds: the
// micro-kernel's tile.
const StripWidth = microM

// Strips returns how many strips hold n rows of A or n columns of B.
func Strips(n int) int { return (n + StripWidth - 1) / StripWidth }

// PackA writes the m×kc block a (row-major, leading dimension lda), scaled by
// alpha, as strips of StripWidth rows: the kc steps of strip s start at
// dst[s*stride], and step l holds the strip's rows of column l at
// dst[s*stride+l*StripWidth:]. Lanes past m in the last strip are zero.
func PackA(dst []float64, stride int, a []float64, lda, m, kc int, alpha float64) {
	packA(dst, stride, a, lda, m, kc, alpha)
}

// PackB writes the kc×n block b (row-major, leading dimension ldb) as strips
// of StripWidth columns, laid out as PackA lays out rows; lanes past n in the
// last strip are zero.
func PackB(dst []float64, stride int, b []float64, ldb, kc, n int) {
	packB(dst, stride, b, ldb, kc, n)
}

// packAGo is PackA in Go: the definition of the strip writers' output, and
// every body's writer but AVX-512's. Each value is one scalar store.
func packAGo(dst []float64, stride int, a []float64, lda, m, kc int, alpha float64) {
	for i := 0; i < m; i += microM {
		strip := dst[i/microM*stride:][:kc*microM]
		if m-i < microM {
			clear(strip)
			for r := i; r < m; r++ {
				for l, v := range a[r*lda:][:kc] {
					strip[l*microM+r-i] = alpha * v
				}
			}
			continue
		}
		r0 := a[i*lda:][:kc] // the others resliced to len(r0): no bounds checks in the loop
		r1, r2, r3 := a[(i+1)*lda:][:len(r0)], a[(i+2)*lda:][:len(r0)], a[(i+3)*lda:][:len(r0)]
		r4, r5, r6, r7 := a[(i+4)*lda:][:len(r0)], a[(i+5)*lda:][:len(r0)], a[(i+6)*lda:][:len(r0)], a[(i+7)*lda:][:len(r0)]
		for l := range r0 {
			d := strip[l*microM:][:microM]
			d[0], d[1], d[2], d[3] = alpha*r0[l], alpha*r1[l], alpha*r2[l], alpha*r3[l]
			d[4], d[5], d[6], d[7] = alpha*r4[l], alpha*r5[l], alpha*r6[l], alpha*r7[l]
		}
	}
}

// packBGo is PackB in Go, as packAGo is PackA. It walks B row by row, so
// reads stream, and moves each full segment with element stores: a copy
// call per segment cost more than the eight moves.
func packBGo(dst []float64, stride int, b []float64, ldb, kc, n int) {
	full := n - n%microN
	for l := 0; l < kc; l++ {
		row, o := b[l*ldb:][:n], l*microN
		for j := 0; j < full; j, o = j+microN, o+stride {
			s, d := row[j:j+microN], dst[o:][:microN]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
		}
		if full < n {
			d := dst[o:][:microN]
			clear(d[copy(d, row[full:]):])
		}
	}
}

// DgemmPacked computes C = A·B from operands already in strips, both at
// strip stride StripWidth·k: A is bands of heights[0], heights[1], … rows
// (PackA with alpha 1), each padded to whole strips and stored one after the
// other from pa; B is bands of widths[0], widths[1], … columns (PackB) from
// pb. C is the (Σheights)×(Σwidths) block at c with leading dimension ldc:
// its rows are the bands' rows in order, its columns the bands' columns. The
// bits are those of Dgemm with alpha 1 and beta 0 on the row-major operands.
// A's strips are shared out to workers under the rule blockedMul follows,
// and every worker reads the one packed B.
func DgemmPacked(heights, widths []int, k int, pa, pb, c []float64, ldc int) error {
	m, sa, errA := bandExtent(heights)
	n, sb, errB := bandExtent(widths)
	stride := StripWidth * k
	switch {
	case errA != nil || errB != nil || k < 0:
		return fmt.Errorf("blas: bad packed bands: heights %v, widths %v, k=%d", heights, widths, k)
	case ldc < max(1, n):
		return fmt.Errorf("blas: ldc=%d < n=%d", ldc, n)
	case len(pa) < sa*stride:
		return fmt.Errorf("blas: packed A has %d elements, need %d", len(pa), sa*stride)
	case len(pb) < sb*stride:
		return fmt.Errorf("blas: packed B has %d elements, need %d", len(pb), sb*stride)
	}
	if m == 0 || n == 0 {
		return nil
	}
	if need := (m-1)*ldc + n; len(c) < need {
		return fmt.Errorf("blas: c has %d elements, need %d", len(c), need)
	}
	if k == 0 {
		for i := 0; i < m; i++ {
			clear(c[i*ldc:][:n])
		}
		return nil
	}
	workers := int(min(int64(runtime.GOMAXPROCS(0)), int64(m)*int64(n)*int64(k)/parallelMinWork))
	if workers <= 1 {
		packedStrips(0, pa[:sa*stride], heights, widths, k, pb, c, ldc)
		return nil
	}
	per := (sa + workers - 1) / workers
	s := splits.Get().(*split)
	s.product = product{packed: true, k: k, a: pa[:sa*stride], b: pb, c: c, ldc: ldc, heights: heights, widths: widths}
	s.run((sa+per-1)/per, per)
	return nil
}

// A split is one product whose rows of C are shared out in parts: part i is
// rows i·per… of blockedMul's A, or strips i·per… of DgemmPacked's. Part 0
// runs on the caller and every other part on a goroutine of its own. The
// split carries the arguments that a closure per goroutine would otherwise
// hold; splits are recycled through a sync.Pool and each goroutine is handed
// its part over a channel, so sharing a product out allocates nothing once
// warm.
type split struct {
	product
	per int
	wg  sync.WaitGroup
}

// product holds the arguments of blockedMulRows, or with packed set those of
// packedStrips (a and b hold the packed operands).
type product struct {
	packed          bool
	m, n, k         int
	alpha           float64
	a, b, c         []float64
	lda, ldb, ldc   int
	store           bool
	heights, widths []int
}

var splits = sync.Pool{New: func() any { return new(split) }}

// A part is a split's part number i, handed to the goroutine that runs it.
type part struct {
	s *split
	i int
}

// handoff carries each part from split.run to the goroutine it starts for
// it. Every send follows a go statement whose goroutine takes exactly one
// part, so no part waits for long; the buffer (a few parts per CPU of a
// large machine) only spares run from waiting for those goroutines to be
// scheduled.
var handoff = make(chan part, 64)

// run runs parts of s, part 0 on the caller, waits for them all, and
// recycles s.
func (s *split) run(parts, per int) {
	s.per = per
	s.wg.Add(parts - 1)
	for i := 1; i < parts; i++ {
		go runPart()
		handoff <- part{s, i}
	}
	s.do(0)
	s.wg.Wait()
	s.product = product{}
	splits.Put(s)
}

// runPart runs one part taken from handoff.
func runPart() {
	p := <-handoff
	p.s.do(p.i)
	p.s.wg.Done()
}

// do runs part i of s.
func (s *split) do(i int) {
	p := &s.product
	lo := i * s.per
	if p.packed {
		stride := StripWidth * p.k
		packedStrips(lo, p.a[lo*stride:min((lo+s.per)*stride, len(p.a))], p.heights, p.widths, p.k, p.b, p.c, p.ldc)
		return
	}
	blockedMulRows(min(s.per, p.m-lo), p.n, p.k, p.alpha, p.a[lo*p.lda:], p.lda, p.b, p.ldb, p.c[lo*p.ldc:], p.ldc, p.store)
}

// bandExtent returns the total extent of bands and the strips they fill.
func bandExtent(bands []int) (total, strips int, err error) {
	for _, b := range bands {
		if b < 0 {
			return 0, 0, fmt.Errorf("blas: negative band %d", b)
		}
		total, strips = total+b, strips+Strips(b)
	}
	return total, strips, nil
}

// packedStrips computes DgemmPacked's C rows held by own, A's strips from
// strip s0 on (k > 0): it runs the MC/KC/NC loop of blockedMulRows over the
// packed operands in place, so each element gets its KC panels in k order.
// The first KC panel stores into C, so C is never zeroed first.
func packedStrips(s0 int, own []float64, heights, widths []int, k int, pb, c []float64, ldc int) {
	stride := StripWidth * k
	s1 := s0 + len(own)/stride
	for col, sb, bj := 0, 0, 0; bj < len(widths); bj++ {
		w := widths[bj]
		for jc := 0; jc < w; jc += blockNC {
			nc, bp := min(blockNC, w-jc), pb[(sb+jc/microN)*stride:]
			for pc := 0; pc < k; pc += blockKC {
				kc := min(blockKC, k-pc)
				for row, first, b := 0, 0, 0; b < len(heights) && first < s1; b++ {
					h := heights[b]
					lo, hi := max(s0, first), min(s1, first+Strips(h))
					for s := lo; s < hi; s += blockMC / microM {
						i := (s - first) * microM
						mc := min(blockMC, h-i, (hi-s)*microM)
						macroKernel(mc, nc, kc, own[(s-s0)*stride+pc*microM:], stride, bp[pc*microN:], stride, c[(row+i)*ldc+col+jc:], ldc, pc == 0)
					}
					row, first = row+h, first+Strips(h)
				}
			}
		}
		col, sb = col+w, sb+Strips(w)
	}
}

// macroKernel multiplies kc steps of mc rows of packed A by nc columns of
// packed B into C, or with store set writes the product there: strip s of A
// starts at pa[s*sa], strip t of B at pb[t*sb], each at the panel's first
// step. With the 8×24 tile (wideTile), each block of wideNC columns is
// swept A strip by A strip, each strip of full rows meeting every group of
// three B strips in the block through microKernel8x24 (see the blocking
// parameters for which operand stays in which cache). The 0–2 strips left
// after the last group, and the fringe rows under the groups, go through
// macroKernel8x8. Every lane gets the same arithmetic from either tile.
func macroKernel(mc, nc, kc int, pa []float64, sa int, pb []float64, sb int, c []float64, ldc int, store bool) {
	if !wideTile() {
		macroKernel8x8(mc, nc, kc, pa, sa, pb, sb, c, ldc, store)
		return
	}
	full, wide := mc-mc%microM, nc-nc%wideN
	for j0 := 0; j0 < wide; j0 += wideNC {
		j1 := min(wide, j0+wideNC)
		for i := 0; i < full; i += microM {
			aPanel := pa[i/microM*sa:][:kc*microM]
			for j := j0; j < j1; j += wideN {
				t := j / microN * sb
				microKernel8x24(kc, aPanel, pb[t:], pb[t+sb:], pb[t+2*sb:], c[i*ldc+j:], ldc, store)
			}
		}
	}
	if full < mc && wide > 0 {
		macroKernel8x8(mc-full, wide, kc, pa[full/microM*sa:], sa, pb, sb, c[full*ldc:], ldc, store)
	}
	if wide < nc {
		macroKernel8x8(mc, nc-wide, kc, pa, sa, pb[wide/microN*sb:], sb, c[wide:], ldc, store)
	}
}

// macroKernel8x8 is macroKernel with the 8×8 tile alone. Fringe tiles go
// through the same micro-kernel on a full-size copy of the tile (strips are
// padded to whole strips; with store set nothing is copied in) and only the
// rows and columns that exist are copied back, so an element of C gets the
// same arithmetic wherever the tile grid happens to put it.
func macroKernel8x8(mc, nc, kc int, pa []float64, sa int, pb []float64, sb int, c []float64, ldc int, store bool) {
	for j := 0; j < nc; j += microN {
		jb := min(microN, nc-j)
		bPanel := pb[j/microN*sb:][:kc*microN]
		for i := 0; i < mc; i += microM {
			ib := min(microM, mc-i)
			aPanel := pa[i/microM*sa:][:kc*microM]
			ct := c[i*ldc+j:]
			if ib == microM && jb == microN {
				microKernel(kc, aPanel, bPanel, ct, ldc, store)
				continue
			}
			var tile [microM * microN]float64
			for ii := 0; ii < ib && !store; ii++ {
				copy(tile[ii*microN:ii*microN+jb], ct[ii*ldc:])
			}
			microKernel(kc, aPanel, bPanel, tile[:], microN, store)
			for ii := 0; ii < ib; ii++ {
				copy(ct[ii*ldc:ii*ldc+jb], tile[ii*microN:])
			}
		}
	}
}

// GemmFlops returns the floating point operation count of an m×n×k GEMM
// update (one multiply and one add per inner iteration).
func GemmFlops(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}
