// AVX2 bodies of the fused gather/scatter quad loops. See kernels.go for
// the bit-identity contract: VMULPD/VADDPD (never FMA) so every element
// rounds exactly like the generic scalar chain, vectorized only across the
// independent column index.

#include "textflag.h"

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	MOVL	CX, R8
	ANDL	$0x18000000, R8     // OSXSAVE (27) + AVX (28)
	CMPL	R8, $0x18000000
	JNE	noavx2
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX              // XMM+YMM state enabled by the OS
	CMPL	AX, $6
	JNE	noavx2
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x20, BX           // AVX2 (EBX bit 5)
	JZ	noavx2
	MOVB	$1, ret+0(FP)
	RET
noavx2:
	MOVB	$0, ret+0(FP)
	RET

// func gatherAXPYQuads(y *float64, n int, data *float64, rows *int32, w *float64, quads, c int, scale float64)
TEXT ·gatherAXPYQuads(SB), NOSPLIT, $0-64
	MOVQ	y+0(FP), DI
	MOVQ	data+16(FP), SI
	MOVQ	rows+24(FP), DX
	MOVQ	w+32(FP), BX
	MOVQ	quads+40(FP), CX
	MOVQ	c+48(FP), R8
	VMOVSD	scale+56(FP), X15

gquad:
	// Row pointers: data + rows[t+i]*c*8.
	MOVLQSX	(DX), R9
	MOVLQSX	4(DX), R10
	MOVLQSX	8(DX), R11
	MOVLQSX	12(DX), R12
	IMULQ	R8, R9
	IMULQ	R8, R10
	IMULQ	R8, R11
	IMULQ	R8, R12
	LEAQ	(SI)(R9*8), R9
	LEAQ	(SI)(R10*8), R10
	LEAQ	(SI)(R11*8), R11
	LEAQ	(SI)(R12*8), R12
	// Broadcast a_i = w[t+i]*scale (scalar multiply first: same IEEE op
	// order as the generic path's w[k]*scale).
	VMOVSD	(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y4
	VMOVSD	8(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y5
	VMOVSD	16(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y6
	VMOVSD	24(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y7
	MOVQ	n+8(FP), R13
	XORQ	AX, AX

gvec:
	CMPQ	R13, $4
	JLT	gtail
	// v = y[j]; v += a0*x0[j]; ... ; v += a3*x3[j]; y[j] = v — the serial
	// chain, four columns at a time.
	VMOVUPD	(DI)(AX*1), Y0
	VMOVUPD	(R9)(AX*1), Y1
	VMULPD	Y4, Y1, Y1
	VADDPD	Y1, Y0, Y0
	VMOVUPD	(R10)(AX*1), Y1
	VMULPD	Y5, Y1, Y1
	VADDPD	Y1, Y0, Y0
	VMOVUPD	(R11)(AX*1), Y1
	VMULPD	Y6, Y1, Y1
	VADDPD	Y1, Y0, Y0
	VMOVUPD	(R12)(AX*1), Y1
	VMULPD	Y7, Y1, Y1
	VADDPD	Y1, Y0, Y0
	VMOVUPD	Y0, (DI)(AX*1)
	ADDQ	$32, AX
	SUBQ	$4, R13
	JMP	gvec

gtail:
	TESTQ	R13, R13
	JZ	gnext
	VMOVSD	(DI)(AX*1), X0
	VMOVSD	(R9)(AX*1), X1
	VMULSD	X4, X1, X1
	VADDSD	X1, X0, X0
	VMOVSD	(R10)(AX*1), X1
	VMULSD	X5, X1, X1
	VADDSD	X1, X0, X0
	VMOVSD	(R11)(AX*1), X1
	VMULSD	X6, X1, X1
	VADDSD	X1, X0, X0
	VMOVSD	(R12)(AX*1), X1
	VMULSD	X7, X1, X1
	VADDSD	X1, X0, X0
	VMOVSD	X0, (DI)(AX*1)
	ADDQ	$8, AX
	DECQ	R13
	JMP	gtail

gnext:
	ADDQ	$16, DX
	ADDQ	$32, BX
	DECQ	CX
	JNZ	gquad
	VZEROUPPER
	RET

// func scatterAXPYQuads(x *float64, n int, data *float64, rows *int32, w *float64, quads, c int, scale float64)
TEXT ·scatterAXPYQuads(SB), NOSPLIT, $0-64
	MOVQ	x+0(FP), DI
	MOVQ	data+16(FP), SI
	MOVQ	rows+24(FP), DX
	MOVQ	w+32(FP), BX
	MOVQ	quads+40(FP), CX
	MOVQ	c+48(FP), R8
	VMOVSD	scale+56(FP), X15

squad:
	MOVLQSX	(DX), R9
	MOVLQSX	4(DX), R10
	MOVLQSX	8(DX), R11
	MOVLQSX	12(DX), R12
	IMULQ	R8, R9
	IMULQ	R8, R10
	IMULQ	R8, R11
	IMULQ	R8, R12
	LEAQ	(SI)(R9*8), R9
	LEAQ	(SI)(R10*8), R10
	LEAQ	(SI)(R11*8), R11
	LEAQ	(SI)(R12*8), R12
	VMOVSD	(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y4
	VMOVSD	8(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y5
	VMOVSD	16(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y6
	VMOVSD	24(BX), X0
	VMULSD	X15, X0, X0
	VBROADCASTSD X0, Y7
	MOVQ	n+8(FP), R13
	XORQ	AX, AX

svec:
	CMPQ	R13, $4
	JLT	stail
	// Each row's read-modify-write completes before the next row's load,
	// so duplicate rows accumulate in ascending t per element — exactly
	// the generic path's aliasing behavior.
	VMOVUPD	(DI)(AX*1), Y0
	VMOVUPD	(R9)(AX*1), Y1
	VMULPD	Y4, Y0, Y2
	VADDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (R9)(AX*1)
	VMOVUPD	(R10)(AX*1), Y1
	VMULPD	Y5, Y0, Y2
	VADDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (R10)(AX*1)
	VMOVUPD	(R11)(AX*1), Y1
	VMULPD	Y6, Y0, Y2
	VADDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (R11)(AX*1)
	VMOVUPD	(R12)(AX*1), Y1
	VMULPD	Y7, Y0, Y2
	VADDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (R12)(AX*1)
	ADDQ	$32, AX
	SUBQ	$4, R13
	JMP	svec

stail:
	TESTQ	R13, R13
	JZ	snext
	VMOVSD	(DI)(AX*1), X0
	VMOVSD	(R9)(AX*1), X1
	VMULSD	X4, X0, X2
	VADDSD	X2, X1, X1
	VMOVSD	X1, (R9)(AX*1)
	VMOVSD	(R10)(AX*1), X1
	VMULSD	X5, X0, X2
	VADDSD	X2, X1, X1
	VMOVSD	X1, (R10)(AX*1)
	VMOVSD	(R11)(AX*1), X1
	VMULSD	X6, X0, X2
	VADDSD	X2, X1, X1
	VMOVSD	X1, (R11)(AX*1)
	VMOVSD	(R12)(AX*1), X1
	VMULSD	X7, X0, X2
	VADDSD	X2, X1, X1
	VMOVSD	X1, (R12)(AX*1)
	ADDQ	$8, AX
	DECQ	R13
	JMP	stail

snext:
	ADDQ	$16, DX
	ADDQ	$32, BX
	DECQ	CX
	JNZ	squad
	VZEROUPPER
	RET

// Dense product tiles. mulTile computes, for each of `rows` output rows,
// one tile of 4·nvec columns (nvec ∈ {8, 4, 2, 1}):
//
//	acc = accumulate ? dst[r] : 0
//	for k in 0..kdim: acc += a[r·aRow + k·aK] · b[k·ldb : +4·nvec]
//	dst[r] = acc + bias        (bias only when non-nil)
//
// with the accumulators in Y0–Y7 across the whole k loop, skipping the
// terms whose a element is ±0 when skipZero is set. See matmul.go for the
// contract: VMULPD then VADDPD per term (never FMA), ascending k, lanes are
// independent output columns.
//
// Registers: DI dst row, R15 ldd bytes · R9 a row, R14 aRow bytes · DX a
// walker, R12 aK bytes · R8 b tile, SI b walker, R13 ldb bytes, R11 b tile
// end · BX bias or 0 · CX rows left · R10 flags (1 accumulate, 2 skipZero) ·
// AX scratch · Y8 broadcast a · Y9–Y15 products.

#define ACC_ZERO \
	VXORPD Y0, Y0, Y0; VXORPD Y1, Y1, Y1; VXORPD Y2, Y2, Y2; VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; VXORPD Y5, Y5, Y5; VXORPD Y6, Y6, Y6; VXORPD Y7, Y7, Y7

#define LOAD1 VMOVUPD (DI), Y0
#define LOAD2 LOAD1; VMOVUPD 32(DI), Y1
#define LOAD4 LOAD2; VMOVUPD 64(DI), Y2; VMOVUPD 96(DI), Y3
#define LOAD8 LOAD4; VMOVUPD 128(DI), Y4; VMOVUPD 160(DI), Y5; VMOVUPD 192(DI), Y6; VMOVUPD 224(DI), Y7

#define STORE1 VMOVUPD Y0, (DI)
#define STORE2 STORE1; VMOVUPD Y1, 32(DI)
#define STORE4 STORE2; VMOVUPD Y2, 64(DI); VMOVUPD Y3, 96(DI)
#define STORE8 STORE4; VMOVUPD Y4, 128(DI); VMOVUPD Y5, 160(DI); VMOVUPD Y6, 192(DI); VMOVUPD Y7, 224(DI)

#define BIAS1 VADDPD (BX), Y0, Y0
#define BIAS2 BIAS1; VADDPD 32(BX), Y1, Y1
#define BIAS4 BIAS2; VADDPD 64(BX), Y2, Y2; VADDPD 96(BX), Y3, Y3
#define BIAS8 BIAS4; VADDPD 128(BX), Y4, Y4; VADDPD 160(BX), Y5, Y5; VADDPD 192(BX), Y6, Y6; VADDPD 224(BX), Y7, Y7

#define STEP(off, acc, t) VMULPD off(SI), Y8, t; VADDPD t, acc, acc
#define STEPS1 STEP(0, Y0, Y9)
#define STEPS2 STEPS1; STEP(32, Y1, Y10)
#define STEPS4 STEPS2; STEP(64, Y2, Y11); STEP(96, Y3, Y12)
#define STEPS8 STEPS4; STEP(128, Y4, Y13); STEP(160, Y5, Y14); STEP(192, Y6, Y15); STEP(224, Y7, Y9)

// The zero test: a == ±0 exactly when its bits shifted left by one are
// zero (a NaN's are not).
#define TILE(ROW, INIT, K, MUL, NEXT, OUT, LOADN, STEPSN, BIASN, STOREN) \
ROW: \
	ACC_ZERO; \
	TESTQ	$1, R10; \
	JZ	INIT; \
	LOADN; \
INIT: \
	MOVQ	R8, SI; \
	MOVQ	R9, DX; \
K: \
	TESTQ	$2, R10; \
	JZ	MUL; \
	MOVQ	(DX), AX; \
	SHLQ	$1, AX; \
	JZ	NEXT; \
MUL: \
	VBROADCASTSD (DX), Y8; \
	STEPSN; \
NEXT: \
	ADDQ	R12, DX; \
	ADDQ	R13, SI; \
	CMPQ	SI, R11; \
	JNE	K; \
	TESTQ	BX, BX; \
	JZ	OUT; \
	BIASN; \
OUT: \
	STOREN; \
	ADDQ	R14, R9; \
	ADDQ	R15, DI; \
	DECQ	CX; \
	JNZ	ROW; \
	VZEROUPPER; \
	RET

// func mulTile(dst, a, b, bias *float64, rows, kdim, aRow, aK, ldb, ldd, nvec int, accumulate, skipZero bool)
TEXT ·mulTile(SB), NOSPLIT, $0-90
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), R9
	MOVQ	b+16(FP), R8
	MOVQ	bias+24(FP), BX
	MOVQ	rows+32(FP), CX
	MOVQ	kdim+40(FP), R11
	MOVQ	aRow+48(FP), R14
	MOVQ	aK+56(FP), R12
	MOVQ	ldb+64(FP), R13
	MOVQ	ldd+72(FP), R15
	MOVQ	nvec+80(FP), AX
	MOVBQZX	accumulate+88(FP), R10
	MOVBQZX	skipZero+89(FP), DX
	SHLQ	$1, DX
	ORQ	DX, R10
	SHLQ	$3, R14
	SHLQ	$3, R12
	SHLQ	$3, R13
	SHLQ	$3, R15
	IMULQ	R13, R11
	ADDQ	R8, R11
	CMPQ	AX, $8
	JEQ	row8
	CMPQ	AX, $4
	JEQ	row4
	CMPQ	AX, $2
	JEQ	row2
	JMP	row1
	TILE(row8, init8, k8, mul8, next8, out8, LOAD8, STEPS8, BIAS8, STORE8)
	TILE(row4, init4, k4, mul4, next4, out4, LOAD4, STEPS4, BIAS4, STORE4)
	TILE(row2, init2, k2, mul2, next2, out2, LOAD2, STEPS2, BIAS2, STORE2)
	TILE(row1, init1, k1, mul1, next1, out1, LOAD1, STEPS1, BIAS1, STORE1)
