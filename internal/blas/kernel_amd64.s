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
