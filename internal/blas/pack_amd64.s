//go:build !noasm

#include "textflag.h"

// Transposes the 8×8 block whose rows are Z0..Z7 into Z8..Z15, whose lane r
// is row r's value of column 0..7: row pairs are interleaved (VUNPCKLPD/
// VUNPCKHPD), then 128-bit lanes are gathered twice (VSHUFF64X2: selector
// 0x88 takes lanes 0 and 2 of each source, 0xDD lanes 1 and 3). The last
// gather zeroes the lanes K2 leaves out.
#define TRANSPOSE8 \
	VUNPCKLPD     Z1, Z0, Z8             \
	VUNPCKHPD     Z1, Z0, Z9             \
	VUNPCKLPD     Z3, Z2, Z10            \
	VUNPCKHPD     Z3, Z2, Z11            \
	VUNPCKLPD     Z5, Z4, Z12            \
	VUNPCKHPD     Z5, Z4, Z13            \
	VUNPCKLPD     Z7, Z6, Z14            \
	VUNPCKHPD     Z7, Z6, Z15            \
	VSHUFF64X2    $0x88, Z10, Z8, Z0     \
	VSHUFF64X2    $0xDD, Z10, Z8, Z1     \
	VSHUFF64X2    $0x88, Z11, Z9, Z2     \
	VSHUFF64X2    $0xDD, Z11, Z9, Z3     \
	VSHUFF64X2    $0x88, Z14, Z12, Z4    \
	VSHUFF64X2    $0xDD, Z14, Z12, Z5    \
	VSHUFF64X2    $0x88, Z15, Z13, Z6    \
	VSHUFF64X2    $0xDD, Z15, Z13, Z7    \
	VSHUFF64X2.Z  $0x88, Z4, Z0, K2, Z8  \
	VSHUFF64X2.Z  $0x88, Z6, Z2, K2, Z9  \
	VSHUFF64X2.Z  $0x88, Z5, Z1, K2, Z10 \
	VSHUFF64X2.Z  $0x88, Z7, Z3, K2, Z11 \
	VSHUFF64X2.Z  $0xDD, Z4, Z0, K2, Z12 \
	VSHUFF64X2.Z  $0xDD, Z6, Z2, K2, Z13 \
	VSHUFF64X2.Z  $0xDD, Z5, Z1, K2, Z14 \
	VSHUFF64X2.Z  $0xDD, Z7, Z3, K2, Z15

// func packAStripAVX512(kc, rows int, a *float64, lda int, dst *float64, alpha float64)
//
// Writes the kc columns of the rows (1 to 8) rows at a (row stride lda),
// each value times alpha, as one strip at dst: column l's rows go to
// dst[8l:8l+8], and lanes past rows are +0. Each block of 8 columns is 8 row
// loads with the multiply, an 8×8 transpose in registers and 8 stores; a last
// block of fewer columns is loaded under the mask K1 and stores only its
// columns. A row past rows is read as row 0 and its lanes zeroed.
TEXT ·packAStripAVX512(SB), NOSPLIT, $0-48
	MOVQ         kc+0(FP), CX
	MOVQ         rows+8(FP), AX
	MOVQ         a+16(FP), SI
	MOVQ         lda+24(FP), BX
	MOVQ         dst+32(FP), DI
	VBROADCASTSD alpha+40(FP), Z16
	SHLQ         $3, BX

	// R8..R13, DX: the offsets of rows 1..7, or 0 for rows past rows.
	XORL R8, R8
	XORL R9, R9
	XORL R10, R10
	XORL R11, R11
	XORL R12, R12
	XORL R13, R13
	XORL DX, DX
	CMPQ AX, $1
	JLE  aoffsets
	MOVQ BX, R8
	CMPQ AX, $2
	JLE  aoffsets
	LEAQ (BX)(BX*1), R9
	CMPQ AX, $3
	JLE  aoffsets
	LEAQ (R9)(BX*1), R10
	CMPQ AX, $4
	JLE  aoffsets
	LEAQ (R9)(R9*1), R11
	CMPQ AX, $5
	JLE  aoffsets
	LEAQ (R11)(BX*1), R12
	CMPQ AX, $6
	JLE  aoffsets
	LEAQ (R11)(R9*1), R13
	CMPQ AX, $7
	JLE  aoffsets
	LEAQ (R13)(BX*1), DX

aoffsets:
	// K2: the lanes of rows 0..rows-1. K1: the columns of the last block.
	MOVQ  CX, BX // BX is free now: the offsets hold every row's
	MOVQ  AX, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K2
	MOVQ  BX, CX
	ANDQ  $7, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1
	MOVQ  BX, AX
	SHRQ  $3, AX // whole blocks
	TESTQ AX, AX
	JZ    atail

aloop:
	VMULPD (SI), Z16, Z0
	VMULPD (SI)(R8*1), Z16, Z1
	VMULPD (SI)(R9*1), Z16, Z2
	VMULPD (SI)(R10*1), Z16, Z3
	VMULPD (SI)(R11*1), Z16, Z4
	VMULPD (SI)(R12*1), Z16, Z5
	VMULPD (SI)(R13*1), Z16, Z6
	VMULPD (SI)(DX*1), Z16, Z7
	TRANSPOSE8
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, 64(DI)
	VMOVUPD Z10, 128(DI)
	VMOVUPD Z11, 192(DI)
	VMOVUPD Z12, 256(DI)
	VMOVUPD Z13, 320(DI)
	VMOVUPD Z14, 384(DI)
	VMOVUPD Z15, 448(DI)
	ADDQ    $64, SI
	ADDQ    $512, DI
	DECQ    AX
	JNZ     aloop

atail:
	TESTQ CX, CX
	JZ    adone
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD.Z (SI)(R8*1), K1, Z1
	VMOVUPD.Z (SI)(R9*1), K1, Z2
	VMOVUPD.Z (SI)(R10*1), K1, Z3
	VMOVUPD.Z (SI)(R11*1), K1, Z4
	VMOVUPD.Z (SI)(R12*1), K1, Z5
	VMOVUPD.Z (SI)(R13*1), K1, Z6
	VMOVUPD.Z (SI)(DX*1), K1, Z7
	VMULPD    Z0, Z16, Z0
	VMULPD    Z1, Z16, Z1
	VMULPD    Z2, Z16, Z2
	VMULPD    Z3, Z16, Z3
	VMULPD    Z4, Z16, Z4
	VMULPD    Z5, Z16, Z5
	VMULPD    Z6, Z16, Z6
	VMULPD    Z7, Z16, Z7
	TRANSPOSE8
	VMOVUPD   Z8, (DI) // CX (1..7) columns
	CMPQ      CX, $2
	JLT       adone
	VMOVUPD   Z9, 64(DI)
	CMPQ      CX, $3
	JLT       adone
	VMOVUPD   Z10, 128(DI)
	CMPQ      CX, $4
	JLT       adone
	VMOVUPD   Z11, 192(DI)
	CMPQ      CX, $5
	JLT       adone
	VMOVUPD   Z12, 256(DI)
	CMPQ      CX, $6
	JLT       adone
	VMOVUPD   Z13, 320(DI)
	CMPQ      CX, $7
	JLT       adone
	VMOVUPD   Z14, 384(DI)

adone:
	VZEROUPPER
	RET

// func packBAVX512(kc, n int, b *float64, ldb int, dst *float64, stride int)
//
// Writes the n columns of the kc rows at b (row stride ldb) as strips at dst,
// strip t from dst[t*stride]: row l of a strip's 8 columns goes to
// dst[t*stride+8l:] with one 64-byte load and one store, a last strip of
// fewer columns loaded under the mask K1, which zeroes its padding lanes. It
// walks B four rows at a time across every strip, so it reads B's rows in
// order and writes a 256-byte run into each strip: on 176×176 to 512×256
// panels of a 512-wide B that ran 15–40 % faster than walking B strip by
// strip, down its columns.
TEXT ·packBAVX512(SB), NOSPLIT, $0-48
	MOVQ  kc+0(FP), R13
	MOVQ  n+8(FP), R11
	MOVQ  b+16(FP), SI
	MOVQ  ldb+24(FP), BX
	MOVQ  dst+32(FP), DI
	MOVQ  stride+40(FP), R12
	SHLQ  $3, BX
	SHLQ  $3, R12
	LEAQ  (BX)(BX*2), R8 // 3 rows
	MOVQ  R11, CX
	ANDQ  $7, CX
	MOVL  $0xFF, AX
	JZ    bmask
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX

bmask:
	KMOVW AX, K1  // the columns of the last strip
	ADDQ  $7, R11
	SHRQ  $3, R11
	DECQ  R11     // the strips before the last
	MOVQ  R13, DX
	ANDQ  $3, DX  // the rows past the last block of 4
	SHRQ  $2, R13 // the blocks of 4 rows
	TESTQ R13, R13
	JZ    brows1

bblock4:
	MOVQ  SI, R9  // row l of this strip
	MOVQ  DI, R10 // step l of this strip
	MOVQ  R11, AX
	TESTQ AX, AX
	JZ    blast4

bstrip4:
	VMOVUPD (R9), Z0
	VMOVUPD (R9)(BX*1), Z1
	VMOVUPD (R9)(BX*2), Z2
	VMOVUPD (R9)(R8*1), Z3
	VMOVUPD Z0, (R10)
	VMOVUPD Z1, 64(R10)
	VMOVUPD Z2, 128(R10)
	VMOVUPD Z3, 192(R10)
	ADDQ    $64, R9
	ADDQ    R12, R10
	DECQ    AX
	JNZ     bstrip4

blast4:
	VMOVUPD.Z (R9), K1, Z0
	VMOVUPD.Z (R9)(BX*1), K1, Z1
	VMOVUPD.Z (R9)(BX*2), K1, Z2
	VMOVUPD.Z (R9)(R8*1), K1, Z3
	VMOVUPD   Z0, (R10)
	VMOVUPD   Z1, 64(R10)
	VMOVUPD   Z2, 128(R10)
	VMOVUPD   Z3, 192(R10)
	LEAQ      (SI)(BX*4), SI
	ADDQ      $256, DI
	DECQ      R13
	JNZ       bblock4

brows1:
	TESTQ DX, DX
	JZ    bdone

bblock1:
	MOVQ  SI, R9
	MOVQ  DI, R10
	MOVQ  R11, AX
	TESTQ AX, AX
	JZ    blast1

bstrip1:
	VMOVUPD (R9), Z0
	VMOVUPD Z0, (R10)
	ADDQ    $64, R9
	ADDQ    R12, R10
	DECQ    AX
	JNZ     bstrip1

blast1:
	VMOVUPD.Z (R9), K1, Z0
	VMOVUPD   Z0, (R10)
	ADDQ      BX, SI
	ADDQ      $64, DI
	DECQ      DX
	JNZ       bblock1

bdone:
	VZEROUPPER
	RET
