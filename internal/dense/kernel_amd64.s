// AVX2+FMA micro-kernel for the blocked GEMM. The hot loop computes an
// 8×4 block of C from an 8-row strip of A and a 4-column strip of B, each
// read through strides, so a packed panel and an operand in place are the
// same loop: 8 FMAs per k step over 8 independent ymm accumulators, 32
// flops per iteration.

#include "textflag.h"

// func dgemmKernel8x4(kc int64, alpha float64, a *float64, as int64, b *float64, bk, bj int64, c *float64, ldc int64)
//
// c[i + j*ldc] += alpha * Σ_p a[p*as+i] * b[p*bk+j*bj]   for i<8, j<4.
// Strides are in elements. kc may be zero.
TEXT ·dgemmKernel8x4(SB), NOSPLIT, $0-72
	MOVQ kc+0(FP), CX
	MOVQ a+16(FP), SI
	MOVQ as+24(FP), R9
	SHLQ $3, R9 // as in bytes
	MOVQ b+32(FP), DI
	MOVQ bk+40(FP), R10
	SHLQ $3, R10 // bk in bytes
	MOVQ bj+48(FP), R11
	SHLQ $3, R11 // bj in bytes
	LEAQ (R11)(R11*2), R12 // 3·bj in bytes
	MOVQ c+56(FP), DX
	MOVQ ldc+64(FP), R8
	SHLQ $3, R8 // ldc in bytes

	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPD (SI), Y0   // a[0:4]
	VMOVUPD 32(SI), Y1 // a[4:8]

	VBROADCASTSD (DI), Y2
	VBROADCASTSD (DI)(R11*1), Y3
	VFMADD231PD  Y0, Y2, Y4
	VFMADD231PD  Y1, Y2, Y5
	VFMADD231PD  Y0, Y3, Y6
	VFMADD231PD  Y1, Y3, Y7

	VBROADCASTSD (DI)(R11*2), Y2
	VBROADCASTSD (DI)(R12*1), Y3
	VFMADD231PD  Y0, Y2, Y8
	VFMADD231PD  Y1, Y2, Y9
	VFMADD231PD  Y0, Y3, Y10
	VFMADD231PD  Y1, Y3, Y11

	ADDQ R9, SI
	ADDQ R10, DI
	DECQ CX
	JNZ  loop

store:
	VBROADCASTSD alpha+8(FP), Y0

	// column 0
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y4, Y0, Y1
	VFMADD231PD Y5, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	ADDQ        R8, DX

	// column 1
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y6, Y0, Y1
	VFMADD231PD Y7, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	ADDQ        R8, DX

	// column 2
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y8, Y0, Y1
	VFMADD231PD Y9, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)
	ADDQ        R8, DX

	// column 3
	VMOVUPD     (DX), Y1
	VMOVUPD     32(DX), Y2
	VFMADD231PD Y10, Y0, Y1
	VFMADD231PD Y11, Y0, Y2
	VMOVUPD     Y1, (DX)
	VMOVUPD     Y2, 32(DX)

	VZEROUPPER
	RET

// Sign bits of the even lanes: XOR negates the first word of each pair.
DATA evenSign<>+0(SB)/8, $0x8000000000000000
DATA evenSign<>+8(SB)/8, $0
DATA evenSign<>+16(SB)/8, $0x8000000000000000
DATA evenSign<>+24(SB)/8, $0
GLOBL evenSign<>(SB), RODATA|NOPTR, $32

// func pack1MStrip(n int64, src *float64, ld int64, dst *float64)
//
// One full 8-row strip of the 1M image of a complex A, column pair by
// column pair: for P < n, the 8 words (4 interleaved complex entries) at
// src[P*ld:] go to dst[16P:16P+8] as they are and to dst[16P+8:16P+16] as
// (−im, re) pairs. ld is in elements. n may be zero.
TEXT ·pack1MStrip(SB), NOSPLIT, $0-32
	MOVQ    n+0(FP), CX
	MOVQ    src+8(FP), SI
	MOVQ    ld+16(FP), R8
	SHLQ    $3, R8 // ld in bytes
	MOVQ    dst+24(FP), DI
	VMOVUPD evenSign<>(SB), Y4

	TESTQ CX, CX
	JZ    packdone

packloop:
	VMOVUPD   (SI), Y0
	VMOVUPD   32(SI), Y1
	VPERMILPD $5, Y0, Y2 // swap re and im in each pair
	VPERMILPD $5, Y1, Y3
	VXORPD    Y4, Y2, Y2
	VXORPD    Y4, Y3, Y3
	VMOVUPD   Y0, (DI)
	VMOVUPD   Y1, 32(DI)
	VMOVUPD   Y2, 64(DI)
	VMOVUPD   Y3, 96(DI)
	ADDQ      R8, SI
	ADDQ      $128, DI
	DECQ      CX
	JNZ       packloop

packdone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
