//go:build amd64 && !purego

#include "textflag.h"

// The three leaf routines of the GEMM kernels (Go twins: kernels.go). AVX
// only: every arithmetic instruction is a lane-wise VMULPD or VADDPD (or its
// scalar form in a tail), one output element per lane, in the order of the Go
// loop — no FMA, no horizontal add, no reassociation. Moves are unaligned
// (a []float64 is 8-byte aligned, no more); VZEROUPPER precedes every RET of
// a routine that wrote a YMM register, so the SSE code Go compiles to pays no
// transition penalty. Operand order is Go's: sources first, destination last.

// func cpuid1ecx() uint32
TEXT ·cpuid1ecx(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// c += a·b for the four (P) or one (S) columns at byte offset SI: a in
// register A (broadcast), the row of B at pointer B, c in register C.
#define MULADDP(B, A, T, C) \
	VMULPD (B)(SI*1), A, T; \
	VADDPD T, C, C
#define MULADDS(B, A, T, C) \
	VMULSD (B)(SI*1), A, T; \
	VADDSD T, C, C

// func axpy4AVX(c *float64, n int, a *[4]float64, b0, b1, b2, b3 *float64)
//
// axpy4Go over c[0:n] and the first n elements of each b; n > 0.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), AX
	MOVQ b0+24(FP), R8
	MOVQ b1+32(FP), R9
	MOVQ b2+40(FP), R10
	MOVQ b3+48(FP), R11
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ SI, SI
	SUBQ $8, CX
	JLT  a4four

a4eight: // two independent vectors of four columns per pass
	VMOVUPD (DI)(SI*1), Y4
	VMOVUPD 32(DI)(SI*1), Y5
	MULADDP(R8, Y0, Y6, Y4)
	MULADDP(R9, Y1, Y6, Y4)
	MULADDP(R10, Y2, Y6, Y4)
	MULADDP(R11, Y3, Y6, Y4)
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ $32, SI
	MULADDP(R8, Y0, Y7, Y5)
	MULADDP(R9, Y1, Y7, Y5)
	MULADDP(R10, Y2, Y7, Y5)
	MULADDP(R11, Y3, Y7, Y5)
	VMOVUPD Y5, (DI)(SI*1)
	ADDQ $32, SI
	SUBQ $8, CX
	JGE  a4eight

a4four: // CX = columns left − 8
	ADDQ $8, CX
	CMPQ CX, $4
	JLT  a4tail
	VMOVUPD (DI)(SI*1), Y4
	MULADDP(R8, Y0, Y6, Y4)
	MULADDP(R9, Y1, Y6, Y4)
	MULADDP(R10, Y2, Y6, Y4)
	MULADDP(R11, Y3, Y6, Y4)
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ $32, SI
	SUBQ $4, CX

a4tail:
	TESTQ CX, CX
	JZ    a4done

a4one:
	VMOVSD (DI)(SI*1), X4
	MULADDS(R8, X0, X6, X4)
	MULADDS(R9, X1, X6, X4)
	MULADDS(R10, X2, X6, X4)
	MULADDS(R11, X3, X6, X4)
	VMOVSD X4, (DI)(SI*1)
	ADDQ $8, SI
	DECQ CX
	JNZ  a4one

a4done:
	VZEROUPPER
	RET

// func axpyAVX(c *float64, n int, a float64, b *float64)
//
// axpyGo over c[0:n] and b[0:n]; n > 0.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD a+16(FP), Y0
	MOVQ b+24(FP), R8
	XORQ SI, SI
	SUBQ $4, CX
	JLT  a1tail

a1four:
	VMOVUPD (DI)(SI*1), Y4
	MULADDP(R8, Y0, Y6, Y4)
	VMOVUPD Y4, (DI)(SI*1)
	ADDQ $32, SI
	SUBQ $4, CX
	JGE  a1four

a1tail: // CX = columns left − 4
	ADDQ $4, CX
	JZ   a1done

a1one:
	VMOVSD (DI)(SI*1), X4
	MULADDS(R8, X0, X6, X4)
	VMOVSD X4, (DI)(SI*1)
	ADDQ $8, SI
	DECQ CX
	JNZ  a1one

a1done:
	VZEROUPPER
	RET

// One step of four chains: ACC's lanes are the sums of row AROW of A against
// the four rows of B, BCOL holds those rows' elements at this step.
#define CHAIN(AROW, OFF, BCOL, ACC) \
	VBROADCASTSD OFF(AROW)(DX*1), Y12; \
	VMULPD BCOL, Y12, Y12; \
	VADDPD Y12, ACC, ACC
#define STEP(OFF, BCOL) \
	CHAIN(AX, OFF, BCOL, Y0); \
	CHAIN(BX, OFF, BCOL, Y1); \
	CHAIN(SI, OFF, BCOL, Y2); \
	CHAIN(R12, OFF, BCOL, Y3)

// func dotTileAVX(t *[16]float64, a, b *float64, n, ld int)
//
// Continues t[4i+j], over p in [0, n) ascending, with the products
// a[i*ld+p]·b[j*ld+p], for i, j in 0..3; n is a multiple of 4 (0 allowed).
// A dot chain is sequential, so the lanes are sixteen different chains: one
// accumulator per row of A, its lanes the four rows of B. Each pass loads
// four steps of the four B rows and transposes them in registers, so that a
// register holds one step of all four rows, then takes the steps in order.
TEXT ·dotTileAVX(SB), NOSPLIT, $0-40
	MOVQ t+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ ld+32(FP), DX
	SHLQ $3, DX
	LEAQ (AX)(DX*1), BX
	LEAQ (BX)(DX*1), SI
	LEAQ (SI)(DX*1), R12
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ  DX, DX
	TESTQ CX, CX
	JZ    dtdone

dtloop:
	VMOVUPD (R8)(DX*1), Y4
	VMOVUPD (R9)(DX*1), Y5
	VMOVUPD (R10)(DX*1), Y6
	VMOVUPD (R11)(DX*1), Y7
	VUNPCKLPD Y5, Y4, Y8            // b0[p] b1[p] b0[p+2] b1[p+2]
	VUNPCKHPD Y5, Y4, Y9            // b0[p+1] b1[p+1] b0[p+3] b1[p+3]
	VUNPCKLPD Y7, Y6, Y10           // b2[p] b3[p] b2[p+2] b3[p+2]
	VUNPCKHPD Y7, Y6, Y11           // b2[p+1] b3[p+1] b2[p+3] b3[p+3]
	VPERM2F128 $0x20, Y10, Y8, Y4   // low halves: b0..b3 at p
	VPERM2F128 $0x20, Y11, Y9, Y5   // b0..b3 at p+1
	VPERM2F128 $0x31, Y10, Y8, Y6   // high halves: b0..b3 at p+2
	VPERM2F128 $0x31, Y11, Y9, Y7   // b0..b3 at p+3
	STEP(0, Y4)
	STEP(8, Y5)
	STEP(16, Y6)
	STEP(24, Y7)
	ADDQ $32, DX
	SUBQ $4, CX
	JNZ  dtloop

dtdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
