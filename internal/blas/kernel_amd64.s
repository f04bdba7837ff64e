//go:build !noasm

#include "textflag.h"

// One k step of the 4×8 tile: the 8 packed B values in Y8:Y9, each of the 4
// packed A values broadcast in turn, eight independent FMAs into Y0..Y7
// (row r of the tile is Y(2r):Y(2r+1)). Every accumulator lane sees its
// products in k order, one fused rounding each.
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

// func kernel4x8FMA(kc int, ap, bp, c *float64, ldc int)
//
// C[0:4,0:8] += Ap·Bp over kc packed k steps (ap: 4 values per step, bp: 8),
// accumulating from zero in registers and adding into C once at the end.
TEXT ·kernel4x8FMA(SB), NOSPLIT, $0-40
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
	KSTEP(32, 64)
	KSTEP(64, 128)
	KSTEP(96, 192)
	ADDQ $128, SI
	ADDQ $256, DI
	DECQ AX
	JNZ  loop4

tail:
	TESTQ CX, CX
	JZ    store

loop1:
	KSTEP(0, 0)
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop1

store:
	CROW(Y0, Y1)
	ADDQ BX, DX
	CROW(Y2, Y3)
	ADDQ BX, DX
	CROW(Y4, Y5)
	ADDQ BX, DX
	CROW(Y6, Y7)
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
