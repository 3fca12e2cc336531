// AVX2 bodies of the fused gather/scatter loops, the dense product tiles
// and the ReLU mask passes. See kernels.go for the bit-identity contract:
// VMULPD/VADDPD (never FMA) so every element rounds exactly like the
// generic scalar chain, vectorized only across the independent column index.

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

// The register-resident CSR gather. For each output row i (CX counts from
// −nrows up to 0 over the rows and off arrays, both addressed from their
// ends):
//
//	acc = dst[rows[i]]                       (Y0 … Y(n−1), n = c/4)
//	for t in off[i] .. off[i+1]:
//		prefetch data[nbr[t+pf]]             (only while t+pf < nnz)
//		acc += (w[t]·scale) · data[nbr[t]]   (VMULPD then VADDPD, x first)
//	dst[rows[i]] = acc
//
// An output row with no terms is neither loaded nor stored. The prefetch
// index walks nbr as one array, so it crosses row boundaries; nbr is never
// read at or past nnz.
//
// Registers: DI dst · R8 rows end · R9 off end · CX row index (negative) ·
// SI data · DX nbr · AX &nbr[pf] · BX w · R12 nnz−pf · R13 row bytes ·
// R10 t · R11 end of the row's terms · R14 dst row · R15 term row ·
// Y15 broadcast scale · Y8 broadcast w[t]·scale · Y9 product.

#define GLOAD1 VMOVUPD (R14), Y0
#define GLOAD2 GLOAD1; VMOVUPD 32(R14), Y1
#define GLOAD3 GLOAD2; VMOVUPD 64(R14), Y2
#define GLOAD4 GLOAD3; VMOVUPD 96(R14), Y3
#define GLOAD5 GLOAD4; VMOVUPD 128(R14), Y4
#define GLOAD6 GLOAD5; VMOVUPD 160(R14), Y5
#define GLOAD7 GLOAD6; VMOVUPD 192(R14), Y6
#define GLOAD8 GLOAD7; VMOVUPD 224(R14), Y7

#define GSTORE1 VMOVUPD Y0, (R14)
#define GSTORE2 GSTORE1; VMOVUPD Y1, 32(R14)
#define GSTORE3 GSTORE2; VMOVUPD Y2, 64(R14)
#define GSTORE4 GSTORE3; VMOVUPD Y3, 96(R14)
#define GSTORE5 GSTORE4; VMOVUPD Y4, 128(R14)
#define GSTORE6 GSTORE5; VMOVUPD Y5, 160(R14)
#define GSTORE7 GSTORE6; VMOVUPD Y6, 192(R14)
#define GSTORE8 GSTORE7; VMOVUPD Y7, 224(R14)

#define GSTEP(off, acc) VMOVUPD off(R15), Y9; VMULPD Y8, Y9, Y9; VADDPD Y9, acc, acc
#define GSTEPS1 GSTEP(0, Y0)
#define GSTEPS2 GSTEPS1; GSTEP(32, Y1)
#define GSTEPS3 GSTEPS2; GSTEP(64, Y2)
#define GSTEPS4 GSTEPS3; GSTEP(96, Y3)
#define GSTEPS5 GSTEPS4; GSTEP(128, Y4)
#define GSTEPS6 GSTEPS5; GSTEP(160, Y5)
#define GSTEPS7 GSTEPS6; GSTEP(192, Y6)
#define GSTEPS8 GSTEPS7; GSTEP(224, Y7)

// One prefetch per 64-byte line of a row (rows of Go's large allocations
// start on a line, so a width that is a multiple of 8 is covered exactly).
#define GPF1 PREFETCHT0 (SI)(R15*1)
#define GPF2 GPF1
#define GPF3 GPF2; PREFETCHT0 64(SI)(R15*1)
#define GPF4 GPF3
#define GPF5 GPF4; PREFETCHT0 128(SI)(R15*1)
#define GPF6 GPF5
#define GPF7 GPF6; PREFETCHT0 192(SI)(R15*1)
#define GPF8 GPF7

#define GROWS(ROW, TERM, NOPF, DONE, LOADN, STEPSN, STOREN, PFN) \
ROW: \
	MOVLQSX	(R9)(CX*4), R10; \
	MOVLQSX	4(R9)(CX*4), R11; \
	CMPQ	R10, R11; \
	JGE	DONE; \
	MOVLQSX	(R8)(CX*4), R14; \
	IMULQ	R13, R14; \
	ADDQ	DI, R14; \
	LOADN; \
TERM: \
	CMPQ	R10, R12; \
	JGE	NOPF; \
	MOVLQSX	(AX)(R10*4), R15; \
	IMULQ	R13, R15; \
	PFN; \
NOPF: \
	MOVLQSX	(DX)(R10*4), R15; \
	IMULQ	R13, R15; \
	ADDQ	SI, R15; \
	VBROADCASTSD	(BX)(R10*8), Y8; \
	VMULPD	Y15, Y8, Y8; \
	STEPSN; \
	INCQ	R10; \
	CMPQ	R10, R11; \
	JLT	TERM; \
	STOREN; \
DONE: \
	INCQ	CX; \
	JNZ	ROW; \
	VZEROUPPER; \
	RET

// func gatherRows(dst *float64, rows, off *int32, nrows int, data *float64, nbr *int32, nnz int, w *float64, c, pf int, scale float64)
TEXT ·gatherRows(SB), NOSPLIT, $0-88
	MOVQ	dst+0(FP), DI
	MOVQ	nrows+24(FP), CX
	MOVQ	rows+8(FP), R8
	LEAQ	(R8)(CX*4), R8
	MOVQ	off+16(FP), R9
	LEAQ	(R9)(CX*4), R9
	NEGQ	CX
	MOVQ	data+32(FP), SI
	MOVQ	nbr+40(FP), DX
	MOVQ	pf+72(FP), R12
	LEAQ	(DX)(R12*4), AX
	NEGQ	R12
	ADDQ	nnz+48(FP), R12
	MOVQ	w+56(FP), BX
	VBROADCASTSD	scale+80(FP), Y15
	MOVQ	c+64(FP), R13
	MOVQ	R13, R15
	SHLQ	$3, R13
	SHRQ	$2, R15
	CMPQ	R15, $8
	JEQ	grows8
	CMPQ	R15, $7
	JEQ	grows7
	CMPQ	R15, $6
	JEQ	grows6
	CMPQ	R15, $5
	JEQ	grows5
	CMPQ	R15, $4
	JEQ	grows4
	CMPQ	R15, $3
	JEQ	grows3
	CMPQ	R15, $2
	JEQ	grows2
	JMP	grows1
	GROWS(grows8, gterm8, gnopf8, gdone8, GLOAD8, GSTEPS8, GSTORE8, GPF8)
	GROWS(grows7, gterm7, gnopf7, gdone7, GLOAD7, GSTEPS7, GSTORE7, GPF7)
	GROWS(grows6, gterm6, gnopf6, gdone6, GLOAD6, GSTEPS6, GSTORE6, GPF6)
	GROWS(grows5, gterm5, gnopf5, gdone5, GLOAD5, GSTEPS5, GSTORE5, GPF5)
	GROWS(grows4, gterm4, gnopf4, gdone4, GLOAD4, GSTEPS4, GSTORE4, GPF4)
	GROWS(grows3, gterm3, gnopf3, gdone3, GLOAD3, GSTEPS3, GSTORE3, GPF3)
	GROWS(grows2, gterm2, gnopf2, gdone2, GLOAD2, GSTEPS2, GSTORE2, GPF2)
	GROWS(grows1, gterm1, gnopf1, gdone1, GLOAD1, GSTEPS1, GSTORE1, GPF1)

// The ReLU mask passes over whole 64-element words (512 bytes of d, one
// uint64 of p). Record: per 4 elements, VCMPPD GT_OQ against +0 is all ones
// exactly where positiveMask is (greater than zero and not NaN), VANDPD
// keeps those elements and clears the rest to +0, and VMOVMSKPD hands the
// four bits to the word. Gate: the word's bits, four at a time, index
// laneMask, whose entry e is all ones in lane l exactly when bit l of e is
// set, and VANDPD applies it.

#define REC(off, sh) \
	VMOVUPD	off(DI), Y0; \
	VCMPPD	$0x1e, Y15, Y0, Y1; \
	VANDPD	Y0, Y1, Y0; \
	VMOVUPD	Y0, off(DI); \
	VMOVMSKPD	Y1, AX; \
	SHLQ	$sh, AX; \
	ORQ	AX, BX

#define GATE(off) \
	MOVQ	BX, AX; \
	ANDQ	$15, AX; \
	SHLQ	$5, AX; \
	VMOVUPD	off(DI), Y1; \
	VANDPD	(R8)(AX*1), Y1, Y1; \
	VMOVUPD	Y1, off(DI); \
	SHRQ	$4, BX

// func maskWords(d *float64, p *uint64, words int, record bool)
TEXT ·maskWords(SB), NOSPLIT, $0-25
	MOVQ	d+0(FP), DI
	MOVQ	p+8(FP), SI
	MOVQ	words+16(FP), CX
	MOVBQZX	record+24(FP), AX
	TESTQ	AX, AX
	JZ	gateword
	VXORPD	Y15, Y15, Y15

recword:
	XORQ	BX, BX
	REC(0, 0)
	REC(32, 4)
	REC(64, 8)
	REC(96, 12)
	REC(128, 16)
	REC(160, 20)
	REC(192, 24)
	REC(224, 28)
	REC(256, 32)
	REC(288, 36)
	REC(320, 40)
	REC(352, 44)
	REC(384, 48)
	REC(416, 52)
	REC(448, 56)
	REC(480, 60)
	MOVQ	BX, (SI)
	ADDQ	$512, DI
	ADDQ	$8, SI
	DECQ	CX
	JNZ	recword
	VZEROUPPER
	RET

gateword:
	LEAQ	laneMask<>(SB), R8
gateloop:
	MOVQ	(SI), BX
	GATE(0)
	GATE(32)
	GATE(64)
	GATE(96)
	GATE(128)
	GATE(160)
	GATE(192)
	GATE(224)
	GATE(256)
	GATE(288)
	GATE(320)
	GATE(352)
	GATE(384)
	GATE(416)
	GATE(448)
	GATE(480)
	ADDQ	$512, DI
	ADDQ	$8, SI
	DECQ	CX
	JNZ	gateloop
	VZEROUPPER
	RET

DATA	laneMask<>+0(SB)/8, $0
DATA	laneMask<>+8(SB)/8, $0
DATA	laneMask<>+16(SB)/8, $0
DATA	laneMask<>+24(SB)/8, $0
DATA	laneMask<>+32(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+40(SB)/8, $0
DATA	laneMask<>+48(SB)/8, $0
DATA	laneMask<>+56(SB)/8, $0
DATA	laneMask<>+64(SB)/8, $0
DATA	laneMask<>+72(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+80(SB)/8, $0
DATA	laneMask<>+88(SB)/8, $0
DATA	laneMask<>+96(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+104(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+112(SB)/8, $0
DATA	laneMask<>+120(SB)/8, $0
DATA	laneMask<>+128(SB)/8, $0
DATA	laneMask<>+136(SB)/8, $0
DATA	laneMask<>+144(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+152(SB)/8, $0
DATA	laneMask<>+160(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+168(SB)/8, $0
DATA	laneMask<>+176(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+184(SB)/8, $0
DATA	laneMask<>+192(SB)/8, $0
DATA	laneMask<>+200(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+208(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+216(SB)/8, $0
DATA	laneMask<>+224(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+232(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+240(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+248(SB)/8, $0
DATA	laneMask<>+256(SB)/8, $0
DATA	laneMask<>+264(SB)/8, $0
DATA	laneMask<>+272(SB)/8, $0
DATA	laneMask<>+280(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+288(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+296(SB)/8, $0
DATA	laneMask<>+304(SB)/8, $0
DATA	laneMask<>+312(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+320(SB)/8, $0
DATA	laneMask<>+328(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+336(SB)/8, $0
DATA	laneMask<>+344(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+352(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+360(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+368(SB)/8, $0
DATA	laneMask<>+376(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+384(SB)/8, $0
DATA	laneMask<>+392(SB)/8, $0
DATA	laneMask<>+400(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+408(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+416(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+424(SB)/8, $0
DATA	laneMask<>+432(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+440(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+448(SB)/8, $0
DATA	laneMask<>+456(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+464(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+472(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+480(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+488(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+496(SB)/8, $0xffffffffffffffff
DATA	laneMask<>+504(SB)/8, $0xffffffffffffffff
GLOBL	laneMask<>(SB), RODATA|NOPTR, $512
