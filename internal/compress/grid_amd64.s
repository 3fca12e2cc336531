// AVX2 bodies of the grid's slice operations. See grid.go for the contract:
// four independent values per iteration, every lane running the operations of
// the Go loop in the Go loop's order — VSUBPD, VDIVPD (a division, never a
// reciprocal), truncate-and-compare rounding, VMULPD then VADDPD (never FMA).

#include "textflag.h"

// func rangeVec(v *float64, n int) (lo, hi float64)
//
// VMINPD/VMAXPD return their second source when an operand is a NaN or both
// are zeros. The accumulator sits there, so a NaN in the data is skipped and
// a zero keeps the sign that came first; what that drops rides along — Y4
// collects the NaN lanes, Y2 the OR and Y3 the AND of every value's bits —
// and is put back after the lanes are folded: NaN for both results if any
// value was one; a zero minimum means every value is ≥ 0, so it is −0 exactly
// when some sign bit was set; a zero maximum means every value is ≤ 0, so it
// is +0 exactly when some sign bit was clear.
TEXT ·rangeVec(SB), NOSPLIT, $0-32
	MOVQ	v+0(FP), SI
	MOVQ	n+8(FP), CX
	VMOVUPD	(SI), Y0            // min
	VMOVAPD	Y0, Y1              // max
	VMOVAPD	Y0, Y2              // or
	VMOVAPD	Y0, Y3              // and
	VCMPPD	$3, Y0, Y0, Y4      // unordered with itself: the NaN lanes
	JMP	rnext

rloop:
	VMOVUPD	(SI), Y5
	VMINPD	Y0, Y5, Y0
	VMAXPD	Y1, Y5, Y1
	VORPD	Y5, Y2, Y2
	VANDPD	Y5, Y3, Y3
	VCMPPD	$3, Y5, Y5, Y5
	VORPD	Y5, Y4, Y4
rnext:
	ADDQ	$32, SI
	SUBQ	$4, CX
	JNZ	rloop

	VMOVMSKPD	Y4, AX
	TESTQ	AX, AX
	JNZ	rnan
	VEXTRACTF128	$1, Y0, X5
	VMINPD	X0, X5, X0
	VPERMILPD	$1, X0, X5
	VMINSD	X0, X5, X0
	VEXTRACTF128	$1, Y1, X5
	VMAXPD	X1, X5, X1
	VPERMILPD	$1, X1, X5
	VMAXSD	X1, X5, X1
	VEXTRACTF128	$1, Y2, X5
	VORPD	X5, X2, X2
	VPERMILPD	$1, X2, X5
	VORPD	X5, X2, X2
	VEXTRACTF128	$1, Y3, X5
	VANDPD	X5, X3, X3
	VPERMILPD	$1, X3, X5
	VANDPD	X5, X3, X3
	MOVQ	$0x8000000000000000, AX
	VMOVQ	AX, X7              // the sign bit
	VXORPD	X6, X6, X6
	VUCOMISD	X6, X0
	JNE	rhi
	VANDPD	X7, X2, X0          // zero minimum: −0 if any sign bit was set
rhi:
	VUCOMISD	X6, X1
	JNE	rout
	VANDPD	X7, X3, X1          // zero maximum: −0 only if every sign bit was
rout:
	VMOVSD	X0, lo+16(FP)
	VMOVSD	X1, hi+24(FP)
	VZEROUPPER
	RET
rnan:
	MOVQ	$0x7FF8000000000001, AX
	MOVQ	AX, lo+16(FP)
	MOVQ	AX, hi+24(FP)
	VZEROUPPER
	RET

// func levelsVec(levels *uint16, payload, roundtrip *float64, n int, lo, step, top, wlo, wstep float64)
//
// x = (v − lo)/step; t = trunc(x); q = t + 1 where x − t ≥ ½ (exact: x ≥ 0 is
// far below 2^52); q = min(q, top). q is an integer below 2^16, so the
// conversion and the saturating pack are exact too. Either destination may be
// nil. A roundtrip that aliases payload is safe: the four values are loaded
// before anything is stored.
TEXT ·levelsVec(SB), NOSPLIT, $0-72
	MOVQ	levels+0(FP), DI
	MOVQ	payload+8(FP), SI
	MOVQ	roundtrip+16(FP), DX
	MOVQ	n+24(FP), CX
	VBROADCASTSD	lo+32(FP), Y8
	VBROADCASTSD	step+40(FP), Y9
	VBROADCASTSD	top+48(FP), Y10
	VBROADCASTSD	wlo+56(FP), Y11
	VBROADCASTSD	wstep+64(FP), Y12
	MOVQ	$0x3FE0000000000000, AX // 0.5
	VMOVQ	AX, X13
	VBROADCASTSD	X13, Y13
	MOVQ	$0x3FF0000000000000, AX // 1.0
	VMOVQ	AX, X14
	VBROADCASTSD	X14, Y14

lloop:
	VMOVUPD	(SI), Y0
	VSUBPD	Y8, Y0, Y0          // v − lo
	VDIVPD	Y9, Y0, Y0          // x
	VROUNDPD	$3, Y0, Y1      // t = trunc(x)
	VSUBPD	Y1, Y0, Y2          // x − t
	VCMPPD	$2, Y2, Y13, Y2     // ½ ≤ x − t
	VANDPD	Y14, Y2, Y2         // 1.0 in those lanes
	VADDPD	Y2, Y1, Y1          // q
	VMINPD	Y10, Y1, Y1         // min(q, top)
	TESTQ	DI, DI
	JZ	lround
	VCVTTPD2DQY	Y1, X3
	VPACKUSDW	X3, X3, X3
	VMOVQ	X3, (DI)
	ADDQ	$8, DI
lround:
	TESTQ	DX, DX
	JZ	lnext
	VMULPD	Y12, Y1, Y1         // q·wstep
	VADDPD	Y1, Y11, Y1         // wlo + q·wstep
	VMOVUPD	Y1, (DX)
	ADDQ	$32, DX
lnext:
	ADDQ	$32, SI
	SUBQ	$4, CX
	JNZ	lloop
	VZEROUPPER
	RET

// func valuesVec(dst *float64, levels *uint16, n int, lo, step, alpha float64, accumulate bool)
TEXT ·valuesVec(SB), NOSPLIT, $0-49
	MOVQ	dst+0(FP), DI
	MOVQ	levels+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSD	lo+24(FP), Y8
	VBROADCASTSD	step+32(FP), Y9
	VBROADCASTSD	alpha+40(FP), Y10
	MOVBQZX	accumulate+48(FP), AX
	TESTQ	AX, AX
	JNZ	vaxpy

vstore:
	VPMOVZXWD	(SI), X0
	VCVTDQ2PD	X0, Y0
	VMULPD	Y9, Y0, Y0          // q·step
	VADDPD	Y0, Y8, Y0          // lo + q·step
	VMOVUPD	Y0, (DI)
	ADDQ	$8, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	vstore
	VZEROUPPER
	RET

vaxpy:
	VPMOVZXWD	(SI), X0
	VCVTDQ2PD	X0, Y0
	VMULPD	Y9, Y0, Y0
	VADDPD	Y0, Y8, Y0
	VMULPD	Y0, Y10, Y0         // alpha·value
	VMOVUPD	(DI), Y1
	VADDPD	Y0, Y1, Y1          // dst + alpha·value
	VMOVUPD	Y1, (DI)
	ADDQ	$8, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	vaxpy
	VZEROUPPER
	RET
