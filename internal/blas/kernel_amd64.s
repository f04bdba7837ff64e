//go:build !noasm

#include "textflag.h"

// One k step of the 8×8 tile with AVX-512F: the 8 packed B values in zb, then
// each of the 8 packed A values broadcast from memory into its row's FMA, one
// ZMM accumulator per row (Z0..Z7). Every accumulator lane sees its products
// in k order, one fused rounding each.
#define ZSTEP(aoff, boff, zb) \
	VMOVUPD          boff(DI), zb      \
	VFMADD231PD.BCST aoff(SI), zb, Z0    \
	VFMADD231PD.BCST aoff+8(SI), zb, Z1  \
	VFMADD231PD.BCST aoff+16(SI), zb, Z2 \
	VFMADD231PD.BCST aoff+24(SI), zb, Z3 \
	VFMADD231PD.BCST aoff+32(SI), zb, Z4 \
	VFMADD231PD.BCST aoff+40(SI), zb, Z5 \
	VFMADD231PD.BCST aoff+48(SI), zb, Z6 \
	VFMADD231PD.BCST aoff+56(SI), zb, Z7

// One row of C += acc, then on to the next row.
#define ZROW(acc) \
	VADDPD  (DX), acc, acc \
	VMOVUPD acc, (DX)      \
	ADDQ    BX, DX

// One row of C = acc + 0 (Z8 holds +0), C unread, then on to the next row.
#define ZPUT(acc) \
	VADDPD  Z8, acc, acc \
	VMOVUPD acc, (DX)    \
	ADDQ    BX, DX

// func kernel8x8AVX512(kc int, ap, bp, c *float64, ldc int, store bool)
//
// C[0:8,0:8] += Ap·Bp over kc packed k steps (ap and bp: 8 values per step),
// accumulating from zero in registers and adding into C once at the end; with
// store set, C[0:8,0:8] = Ap·Bp + 0 instead, without reading C.
TEXT ·kernel8x8AVX512(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), BX
	SHLQ $3, BX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7

	MOVQ CX, AX
	SHRQ $2, AX
	ANDQ $3, CX
	TESTQ AX, AX
	JZ   ztail

zloop4:
	ZSTEP(0, 0, Z8)
	ZSTEP(64, 64, Z9)
	ZSTEP(128, 128, Z10)
	ZSTEP(192, 192, Z11)
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ AX
	JNZ  zloop4

ztail:
	TESTQ CX, CX
	JZ    zstore

zloop1:
	ZSTEP(0, 0, Z8)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  zloop1

zstore:
	CMPB store+40(FP), $0
	JNE  zput
	ZROW(Z0)
	ZROW(Z1)
	ZROW(Z2)
	ZROW(Z3)
	ZROW(Z4)
	ZROW(Z5)
	ZROW(Z6)
	ZROW(Z7)
	VZEROUPPER
	RET

zput:
	VPXORQ Z8, Z8, Z8
	ZPUT(Z0)
	ZPUT(Z1)
	ZPUT(Z2)
	ZPUT(Z3)
	ZPUT(Z4)
	ZPUT(Z5)
	ZPUT(Z6)
	ZPUT(Z7)
	VZEROUPPER
	RET

// One A row of a wide k step: its packed A value broadcast into za, then one
// FMA per B strip into the row's three accumulators. The operands take the
// roles they have in ZSTEP (B the register source, A the broadcast), so every
// lane is the same FMA chain as the 8×8 tile's.
#define WROWSTEP(aoff, za, acc0, acc1, acc2) \
	VBROADCASTSD aoff(SI), za       \
	VFMADD231PD  za, Z24, acc0      \
	VFMADD231PD  za, Z25, acc1      \
	VFMADD231PD  za, Z26, acc2

// One k step of the 8×24 tile: the 8 packed values of each of the three B
// strips in Z24..Z26, then the 8 A rows, row r accumulating in Z(3r)..Z(3r+2).
#define WSTEP(aoff, boff) \
	VMOVUPD boff(DI), Z24                  \
	VMOVUPD boff(R8), Z25                  \
	VMOVUPD boff(R9), Z26                  \
	WROWSTEP(aoff, Z27, Z0, Z1, Z2)        \
	WROWSTEP(aoff+8, Z28, Z3, Z4, Z5)      \
	WROWSTEP(aoff+16, Z27, Z6, Z7, Z8)     \
	WROWSTEP(aoff+24, Z28, Z9, Z10, Z11)   \
	WROWSTEP(aoff+32, Z27, Z12, Z13, Z14)  \
	WROWSTEP(aoff+40, Z28, Z15, Z16, Z17)  \
	WROWSTEP(aoff+48, Z27, Z18, Z19, Z20)  \
	WROWSTEP(aoff+56, Z28, Z21, Z22, Z23)

// One row of a 24-wide C += acc, then on to the next row.
#define WROW(acc0, acc1, acc2) \
	VADDPD  (DX), acc0, acc0     \
	VMOVUPD acc0, (DX)           \
	VADDPD  64(DX), acc1, acc1   \
	VMOVUPD acc1, 64(DX)         \
	VADDPD  128(DX), acc2, acc2  \
	VMOVUPD acc2, 128(DX)        \
	ADDQ    BX, DX

// One row of a 24-wide C = acc + 0 (Z24 holds +0), C unread, then on to the
// next row.
#define WPUT(acc0, acc1, acc2) \
	VADDPD  Z24, acc0, acc0  \
	VMOVUPD acc0, (DX)       \
	VADDPD  Z24, acc1, acc1  \
	VMOVUPD acc1, 64(DX)     \
	VADDPD  Z24, acc2, acc2  \
	VMOVUPD acc2, 128(DX)    \
	ADDQ    BX, DX

// func kernel8x24AVX512(kc int, ap, bp0, bp1, bp2, c *float64, ldc int, store bool)
//
// C[0:8,0:24] += Ap·[Bp0 Bp1 Bp2] over kc packed k steps: kernel8x8AVX512 on
// three B strips at once (columns 0–7 from bp0, 8–15 from bp1, 16–23 from
// bp2), with the same unroll, tail and store paths. Each k step loads the
// three B strips once and each A value once for 24 FMAs.
TEXT ·kernel8x24AVX512(SB), NOSPLIT, $0-57
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp0+16(FP), DI
	MOVQ bp1+24(FP), R8
	MOVQ bp2+32(FP), R9
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), BX
	SHLQ $3, BX

	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23

	MOVQ CX, AX
	SHRQ $2, AX
	ANDQ $3, CX
	TESTQ AX, AX
	JZ   wtail

wloop4:
	WSTEP(0, 0)
	WSTEP(64, 64)
	WSTEP(128, 128)
	WSTEP(192, 192)
	ADDQ $256, SI
	ADDQ $256, DI
	ADDQ $256, R8
	ADDQ $256, R9
	DECQ AX
	JNZ  wloop4

wtail:
	TESTQ CX, CX
	JZ    wstore

wloop1:
	WSTEP(0, 0)
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ CX
	JNZ  wloop1

wstore:
	CMPB store+56(FP), $0
	JNE  wput
	WROW(Z0, Z1, Z2)
	WROW(Z3, Z4, Z5)
	WROW(Z6, Z7, Z8)
	WROW(Z9, Z10, Z11)
	WROW(Z12, Z13, Z14)
	WROW(Z15, Z16, Z17)
	WROW(Z18, Z19, Z20)
	WROW(Z21, Z22, Z23)
	VZEROUPPER
	RET

wput:
	VPXORQ Z24, Z24, Z24
	WPUT(Z0, Z1, Z2)
	WPUT(Z3, Z4, Z5)
	WPUT(Z6, Z7, Z8)
	WPUT(Z9, Z10, Z11)
	WPUT(Z12, Z13, Z14)
	WPUT(Z15, Z16, Z17)
	WPUT(Z18, Z19, Z20)
	WPUT(Z21, Z22, Z23)
	VZEROUPPER
	RET

// One k step of a 4×8 half tile: the 8 packed B values in Y8:Y9, each of the
// 4 packed A values broadcast in turn, eight independent FMAs into Y0..Y7
// (row r of the half tile is Y(2r):Y(2r+1)).
#define KSTEP(aoff, boff) \
	VMOVUPD      boff(DI), Y8       \
	VMOVUPD      boff+32(DI), Y9    \
	VBROADCASTSD aoff(SI), Y10      \
	VFMADD231PD  Y8, Y10, Y0        \
	VFMADD231PD  Y9, Y10, Y1        \
	VBROADCASTSD aoff+8(SI), Y11    \
	VFMADD231PD  Y8, Y11, Y2        \
	VFMADD231PD  Y9, Y11, Y3        \
	VBROADCASTSD aoff+16(SI), Y12   \
	VFMADD231PD  Y8, Y12, Y4        \
	VFMADD231PD  Y9, Y12, Y5        \
	VBROADCASTSD aoff+24(SI), Y13   \
	VFMADD231PD  Y8, Y13, Y6        \
	VFMADD231PD  Y9, Y13, Y7

// One row of C += acc.
#define CROW(lo, hi) \
	VADDPD  (DX), lo, lo    \
	VMOVUPD lo, (DX)        \
	VADDPD  32(DX), hi, hi  \
	VMOVUPD hi, 32(DX)

// One row of C = acc + 0 (Y8 holds +0), C unread.
#define CPUT(lo, hi) \
	VADDPD  Y8, lo, lo   \
	VMOVUPD lo, (DX)     \
	VADDPD  Y8, hi, hi   \
	VMOVUPD hi, 32(DX)

// func kernel4x8FMA(kc int, ap, bp, c *float64, ldc int, store bool)
//
// C[0:4,0:8] += Ap·Bp over kc packed k steps with AVX2/FMA. ap holds 8
// values per step, of which the first 4 are this half tile's rows; bp holds 8.
// Accumulates from zero in registers and adds into C once at the end; with
// store set, C[0:4,0:8] = Ap·Bp + 0 instead, without reading C.
TEXT ·kernel4x8FMA(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), BX
	SHLQ $3, BX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $2, AX
	ANDQ $3, CX
	TESTQ AX, AX
	JZ   tail

loop4:
	KSTEP(0, 0)
	KSTEP(64, 64)
	KSTEP(128, 128)
	KSTEP(192, 192)
	ADDQ $256, SI
	ADDQ $256, DI
	DECQ AX
	JNZ  loop4

tail:
	TESTQ CX, CX
	JZ    store

loop1:
	KSTEP(0, 0)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop1

store:
	CMPB store+40(FP), $0
	JNE  put
	CROW(Y0, Y1)
	ADDQ BX, DX
	CROW(Y2, Y3)
	ADDQ BX, DX
	CROW(Y4, Y5)
	ADDQ BX, DX
	CROW(Y6, Y7)
	VZEROUPPER
	RET

put:
	VXORPD Y8, Y8, Y8
	CPUT(Y0, Y1)
	ADDQ BX, DX
	CPUT(Y2, Y3)
	ADDQ BX, DX
	CPUT(Y4, Y5)
	ADDQ BX, DX
	CPUT(Y6, Y7)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fmaPeakAVX512(n int)
//
// n rounds of 16 independent ZMM FMA chains (256 flops a round), nothing
// loaded or stored: the core's FMA peak, the bound the 8×8 and 8×24 tiles
// are measured against (BenchmarkFMAPeak).
TEXT ·fmaPeakAVX512(SB), NOSPLIT, $0-8
	MOVQ   n+0(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	TESTQ  CX, CX
	JZ     zpeakdone

zpeak:
	VFMADD231PD Z16, Z17, Z0
	VFMADD231PD Z16, Z17, Z1
	VFMADD231PD Z16, Z17, Z2
	VFMADD231PD Z16, Z17, Z3
	VFMADD231PD Z16, Z17, Z4
	VFMADD231PD Z16, Z17, Z5
	VFMADD231PD Z16, Z17, Z6
	VFMADD231PD Z16, Z17, Z7
	VFMADD231PD Z16, Z17, Z8
	VFMADD231PD Z16, Z17, Z9
	VFMADD231PD Z16, Z17, Z10
	VFMADD231PD Z16, Z17, Z11
	VFMADD231PD Z16, Z17, Z12
	VFMADD231PD Z16, Z17, Z13
	VFMADD231PD Z16, Z17, Z14
	VFMADD231PD Z16, Z17, Z15
	DECQ CX
	JNZ  zpeak

zpeakdone:
	VZEROUPPER
	RET

// func fmaPeakAVX2(n int)
//
// n rounds of 12 independent YMM FMA chains (96 flops a round): the AVX2
// body's bound, as fmaPeakAVX512 is the AVX-512 body's.
TEXT ·fmaPeakAVX2(SB), NOSPLIT, $0-8
	MOVQ   n+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	TESTQ  CX, CX
	JZ     ypeakdone

ypeak:
	VFMADD231PD Y12, Y13, Y0
	VFMADD231PD Y12, Y13, Y1
	VFMADD231PD Y12, Y13, Y2
	VFMADD231PD Y12, Y13, Y3
	VFMADD231PD Y12, Y13, Y4
	VFMADD231PD Y12, Y13, Y5
	VFMADD231PD Y12, Y13, Y6
	VFMADD231PD Y12, Y13, Y7
	VFMADD231PD Y12, Y13, Y8
	VFMADD231PD Y12, Y13, Y9
	VFMADD231PD Y12, Y13, Y10
	VFMADD231PD Y12, Y13, Y11
	DECQ CX
	JNZ  ypeak

ypeakdone:
	VZEROUPPER
	RET
