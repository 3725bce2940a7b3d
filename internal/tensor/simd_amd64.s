// AVX2 kernels for the two inner loops every figure benchmark sits on.
//
// axpyAVX2 uses separate VMULPS/VADDPS (never FMA): each y[i] += a*x[i] is
// two correctly-rounded float32 operations, exactly like the scalar
// fallback, so vectorization cannot change a single output bit and the
// package's determinism contract holds across architectures and worker
// counts alike.
//
// dotAVX2 accumulates in four independent 8-lane registers and reduces at
// the end; the reduction order is fixed by the kernel, so results are
// deterministic for any worker count (they differ from the scalar
// fallback's left-to-right order, which only non-amd64 builds use).

#include "textflag.h"

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	eaxIn+0(FP), AX
	MOVL	ecxIn+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL	CX, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET

// func axpyAVX2(a float32, x, y []float32)
// y[i] += a * x[i] for i in [0, len(x)); len(y) >= len(x) is the caller's
// responsibility (the Go wrapper checks it).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVSS	a+0(FP), X0
	VBROADCASTSS	X0, Y0
	MOVQ	x_base+8(FP), SI
	MOVQ	y_base+32(FP), DI
	MOVQ	x_len+16(FP), CX

axpy_loop32:
	CMPQ	CX, $32
	JL	axpy_tail8
	VMOVUPS	(SI), Y1
	VMOVUPS	32(SI), Y2
	VMOVUPS	64(SI), Y3
	VMOVUPS	96(SI), Y4
	VMULPS	Y0, Y1, Y1
	VMULPS	Y0, Y2, Y2
	VMULPS	Y0, Y3, Y3
	VMULPS	Y0, Y4, Y4
	VADDPS	(DI), Y1, Y1
	VADDPS	32(DI), Y2, Y2
	VADDPS	64(DI), Y3, Y3
	VADDPS	96(DI), Y4, Y4
	VMOVUPS	Y1, (DI)
	VMOVUPS	Y2, 32(DI)
	VMOVUPS	Y3, 64(DI)
	VMOVUPS	Y4, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	axpy_loop32

axpy_tail8:
	CMPQ	CX, $8
	JL	axpy_tail1
	VMOVUPS	(SI), Y1
	VMULPS	Y0, Y1, Y1
	VADDPS	(DI), Y1, Y1
	VMOVUPS	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	axpy_tail8

axpy_tail1:
	TESTQ	CX, CX
	JZ	axpy_done
	MOVSS	(SI), X1
	MULSS	X0, X1
	ADDSS	(DI), X1
	MOVSS	X1, (DI)
	ADDQ	$4, SI
	ADDQ	$4, DI
	DECQ	CX
	JMP	axpy_tail1

axpy_done:
	VZEROUPPER
	RET

// func dotAVX2(x, y []float32) float32
// Returns sum_i x[i]*y[i] over len(x) elements; len(y) >= len(x) is the
// caller's responsibility.
TEXT ·dotAVX2(SB), NOSPLIT, $0-52
	MOVQ	x_base+0(FP), SI
	MOVQ	y_base+24(FP), DI
	MOVQ	x_len+8(FP), CX
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3

dot_loop32:
	CMPQ	CX, $32
	JL	dot_tail8
	VMOVUPS	(SI), Y4
	VMOVUPS	32(SI), Y5
	VMOVUPS	64(SI), Y6
	VMOVUPS	96(SI), Y7
	VMULPS	(DI), Y4, Y4
	VMULPS	32(DI), Y5, Y5
	VMULPS	64(DI), Y6, Y6
	VMULPS	96(DI), Y7, Y7
	VADDPS	Y4, Y0, Y0
	VADDPS	Y5, Y1, Y1
	VADDPS	Y6, Y2, Y2
	VADDPS	Y7, Y3, Y3
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	dot_loop32

dot_tail8:
	CMPQ	CX, $8
	JL	dot_reduce
	VMOVUPS	(SI), Y4
	VMULPS	(DI), Y4, Y4
	VADDPS	Y4, Y0, Y0
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	dot_tail8

dot_reduce:
	VADDPS	Y1, Y0, Y0
	VADDPS	Y3, Y2, Y2
	VADDPS	Y2, Y0, Y0
	VEXTRACTF128	$1, Y0, X1
	VADDPS	X1, X0, X0
	VHADDPS	X0, X0, X0
	VHADDPS	X0, X0, X0

dot_tail1:
	TESTQ	CX, CX
	JZ	dot_done
	MOVSS	(SI), X1
	MULSS	(DI), X1
	ADDSS	X1, X0
	ADDQ	$4, SI
	ADDQ	$4, DI
	DECQ	CX
	JMP	dot_tail1

dot_done:
	VZEROUPPER
	MOVSS	X0, ret+48(FP)
	RET

// Direct-convolution span kernel on the packed NC8HW8 layout (see
// packed.go / conv_direct.go). One call computes npix output pixels of
// one conv output row across the 8 output-channel lanes of one block:
// for each pixel p, acc[0..7] = sum over rows r of x[p*pixStride+xoff[r]]
// broadcast against the 8-float weight vector w[r*8..r*8+7].
//
// convPackedSpanAVX2 uses separate VMULPS/VADDPS, so every accumulation
// step is one correctly-rounded multiply plus one correctly-rounded add
// in ascending-row order — bit-identical to convPackedSpanGeneric and
// (by the argument in conv_direct.go) to the im2col+matmul path.
//
// Register plan:
//   DI  y cursor              SI  x base for current pixel block
//   R8  w base                R9  xoff base
//   AX  rows                  CX  npix remaining
//   R13 pixStride*4 (bytes)   R14 3*pixStride*4
//   R10 row counter           R11 w cursor   R12 xoff cursor
//   DX  offset temp           BX  x address temp
//   Y0-Y3 accumulators        Y4-Y7 broadcasts   Y8 weight vector

// func convPackedSpanAVX2(y, x, w []float32, xoff []int32, rows, pixStride, npix int)
TEXT ·convPackedSpanAVX2(SB), NOSPLIT, $0-120
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	w_base+48(FP), R8
	MOVQ	xoff_base+72(FP), R9
	MOVQ	rows+96(FP), AX
	MOVQ	pixStride+104(FP), R13
	SHLQ	$2, R13
	LEAQ	(R13)(R13*2), R14
	MOVQ	npix+112(FP), CX

cps_block4:
	CMPQ	CX, $4
	JL	cps_tail
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	MOVQ	R8, R11
	MOVQ	R9, R12
	MOVQ	AX, R10

cps_rows4:
	MOVLQSX	(R12), DX
	LEAQ	(SI)(DX*4), BX
	VBROADCASTSS	(BX), Y4
	VBROADCASTSS	(BX)(R13*1), Y5
	VBROADCASTSS	(BX)(R13*2), Y6
	VBROADCASTSS	(BX)(R14*1), Y7
	VMOVUPS	(R11), Y8
	VMULPS	Y8, Y4, Y4
	VMULPS	Y8, Y5, Y5
	VMULPS	Y8, Y6, Y6
	VMULPS	Y8, Y7, Y7
	VADDPS	Y4, Y0, Y0
	VADDPS	Y5, Y1, Y1
	VADDPS	Y6, Y2, Y2
	VADDPS	Y7, Y3, Y3
	ADDQ	$32, R11
	ADDQ	$4, R12
	DECQ	R10
	JNZ	cps_rows4
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	LEAQ	(SI)(R13*4), SI
	SUBQ	$4, CX
	JMP	cps_block4

cps_tail:
	TESTQ	CX, CX
	JZ	cps_done
	VXORPS	Y0, Y0, Y0
	MOVQ	R8, R11
	MOVQ	R9, R12
	MOVQ	AX, R10

cps_rows1:
	MOVLQSX	(R12), DX
	VBROADCASTSS	(SI)(DX*4), Y4
	VMOVUPS	(R11), Y8
	VMULPS	Y8, Y4, Y4
	VADDPS	Y4, Y0, Y0
	ADDQ	$32, R11
	ADDQ	$4, R12
	DECQ	R10
	JNZ	cps_rows1
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	R13, SI
	DECQ	CX
	JMP	cps_tail

cps_done:
	VZEROUPPER
	RET

// Elementwise plane kernels (elementwise.go): batch-norm statistics, the
// normalize(+residual)(+rectifier) epilogue and its gradient pair. Every
// routine here takes a whole number of vectors — the Go dispatcher sends
// the remainder of a plane to the generic twin — and, like axpyAVX2, uses
// only separately rounded VMUL/VADD/VSUB (never FMA), so each is
// bit-identical to its twin in simd_generic.go.
//
// The reductions keep StatLanes = 16 float64 lanes in four registers;
// element i of the plane goes to lane i mod 16, so the lane a value lands
// in — and with it the order of every addition — is fixed by the data's
// position alone.
//
// Mode bits (elementwise.go): 1 affine, 2 residual, 4 rectifier, 8 the
// statistics varied with the input. hi is the rectifier's cap, or NaN for
// none: VMINPS(hi, v) and the hi <= out compare are both written so that a
// NaN hi never clamps and never gates.

// func planeSumAVX2(acc *[16]float64, x []float32)
// len(x) must be a positive multiple of 16.
TEXT ·planeSumAVX2(SB), NOSPLIT, $0-32
	MOVQ	acc+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	x_len+16(FP), CX
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3

psum_loop16:
	VCVTPS2PD	(SI), Y4
	VCVTPS2PD	16(SI), Y5
	VCVTPS2PD	32(SI), Y6
	VCVTPS2PD	48(SI), Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$64, SI
	SUBQ	$16, CX
	JNZ	psum_loop16

	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

// func planeSumSqDevAVX2(acc *[16]float64, x []float32, mean float32)
// acc[i mod 16] += float64(x[i] - mean)^2; len(x) a positive multiple of 16.
TEXT ·planeSumSqDevAVX2(SB), NOSPLIT, $0-36
	MOVQ	acc+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	x_len+16(FP), CX
	VBROADCASTSS	mean+32(FP), Y8
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3

psq_loop16:
	VMOVUPS	(SI), Y4
	VMOVUPS	32(SI), Y6
	VSUBPS	Y8, Y4, Y4
	VSUBPS	Y8, Y6, Y6
	VEXTRACTF128	$1, Y4, X5
	VEXTRACTF128	$1, Y6, X7
	VCVTPS2PD	X4, Y4
	VCVTPS2PD	X5, Y5
	VCVTPS2PD	X6, Y6
	VCVTPS2PD	X7, Y7
	VMULPD	Y4, Y4, Y4
	VMULPD	Y5, Y5, Y5
	VMULPD	Y6, Y6, Y6
	VMULPD	Y7, Y7, Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$64, SI
	SUBQ	$16, CX
	JNZ	psq_loop16

	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

// func normalizeAVX2(y, x, res []float32, mean, inv, gamma, beta, hi float32, mode int)
// y = rect(gamma*((x-mean)*inv) + beta + res), each step under its mode bit;
// len(x) a positive multiple of 8. The mode tests are loop-invariant
// branches: perfectly predicted, and cheaper than one loop per mode.
//   DI y   SI x   DX res   BX byte offset   CX byte length   AX mode
//   Y8 mean  Y9 inv  Y10 gamma  Y11 beta  Y12 hi  Y13 zero
TEXT ·normalizeAVX2(SB), NOSPLIT, $0-104
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	x_len+32(FP), CX
	MOVQ	res_base+48(FP), DX
	MOVQ	mode+96(FP), AX
	VBROADCASTSS	mean+72(FP), Y8
	VBROADCASTSS	inv+76(FP), Y9
	VBROADCASTSS	gamma+80(FP), Y10
	VBROADCASTSS	beta+84(FP), Y11
	VBROADCASTSS	hi+88(FP), Y12
	VXORPS	Y13, Y13, Y13
	XORQ	BX, BX
	SHLQ	$2, CX

norm_loop8:
	VMOVUPS	(SI)(BX*1), Y0
	TESTQ	$1, AX
	JZ	norm_res
	VSUBPS	Y8, Y0, Y0
	VMULPS	Y9, Y0, Y0
	VMULPS	Y10, Y0, Y0
	VADDPS	Y11, Y0, Y0

norm_res:
	TESTQ	$2, AX
	JZ	norm_rect
	VADDPS	(DX)(BX*1), Y0, Y0

norm_rect:
	TESTQ	$4, AX
	JZ	norm_store
	// max(v, 0) with zero as the second source: NaN and -0 select +0.
	// min(hi, v) with v as the second source: a NaN hi selects v.
	VMAXPS	Y13, Y0, Y0
	VMINPS	Y0, Y12, Y0

norm_store:
	VMOVUPS	Y0, (DI)(BX*1)
	ADDQ	$32, BX
	CMPQ	BX, CX
	JL	norm_loop8
	VZEROUPPER
	RET

// GATE8 loads 8 saved outputs at OFF(R9) and zeroes (to +0) the lanes of
// DY whose output did not pass the rectifier: pass = out > 0 && !(hi <= out).
// Clobbers Y10, Y11; expects Y14 = hi, Y15 = zero.
#define GATE8(OFF, DY) \
	VMOVUPS	OFF(R9), Y10; \
	VCMPPS	$0x12, Y10, Y14, Y11; \
	VCMPPS	$0x1E, Y15, Y10, Y10; \
	VANDNPS	Y10, Y11, Y10; \
	VANDPS	Y10, DY, DY

// SUMS8 folds 8 gradients (already in Y8) and the 8 inputs at OFF(SI)
// into the lanes S0:S1 (sum dy) and P0:P1 (sum dy*xhat), in float64.
// Clobbers Y8-Y11; expects Y12 = mean, Y13 = inv.
#define SUMS8(OFF, S0, S1, P0, P1) \
	VMOVUPS	OFF(SI), Y9; \
	VSUBPS	Y12, Y9, Y9; \
	VMULPS	Y13, Y9, Y9; \
	VEXTRACTF128	$1, Y8, X10; \
	VEXTRACTF128	$1, Y9, X11; \
	VCVTPS2PD	X8, Y8; \
	VCVTPS2PD	X10, Y10; \
	VCVTPS2PD	X9, Y9; \
	VCVTPS2PD	X11, Y11; \
	VADDPD	Y8, S0, S0; \
	VADDPD	Y10, S1, S1; \
	VMULPD	Y8, Y9, Y9; \
	VMULPD	Y10, Y11, Y11; \
	VADDPD	Y9, P0, P0; \
	VADDPD	Y11, P1, P1

// func gradSumsAVX2(sumDy, sumDyXhat *[16]float64, dy, x, out []float32, mean, inv, hi float32, mode int)
// len(dy) a positive multiple of 16; out is read only under the rectifier bit.
//   R8 dy   SI x   R9 out   CX remaining   AX mode   DI, DX lane sets
//   Y0-Y3 sum dy   Y4-Y7 sum dy*xhat   Y12 mean  Y13 inv  Y14 hi  Y15 zero
TEXT ·gradSumsAVX2(SB), NOSPLIT, $0-112
	MOVQ	sumDy+0(FP), DI
	MOVQ	sumDyXhat+8(FP), DX
	MOVQ	dy_base+16(FP), R8
	MOVQ	dy_len+24(FP), CX
	MOVQ	x_base+40(FP), SI
	MOVQ	out_base+64(FP), R9
	MOVQ	mode+104(FP), AX
	VBROADCASTSS	mean+88(FP), Y12
	VBROADCASTSS	inv+92(FP), Y13
	VBROADCASTSS	hi+96(FP), Y14
	VXORPS	Y15, Y15, Y15
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VMOVUPD	(DX), Y4
	VMOVUPD	32(DX), Y5
	VMOVUPD	64(DX), Y6
	VMOVUPD	96(DX), Y7

gsum_loop16:
	VMOVUPS	(R8), Y8
	TESTQ	$4, AX
	JZ	gsum_lo
	GATE8(0, Y8)

gsum_lo:
	SUMS8(0, Y0, Y1, Y4, Y5)
	VMOVUPS	32(R8), Y8
	TESTQ	$4, AX
	JZ	gsum_hi
	GATE8(32, Y8)

gsum_hi:
	SUMS8(32, Y2, Y3, Y6, Y7)
	ADDQ	$64, R8
	ADDQ	$64, SI
	ADDQ	$64, R9
	SUBQ	$16, CX
	JNZ	gsum_loop16

	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VMOVUPD	Y4, (DX)
	VMOVUPD	Y5, 32(DX)
	VMOVUPD	Y6, 64(DX)
	VMOVUPD	Y7, 96(DX)
	VZEROUPPER
	RET

// func gradInputAVX2(dx, dy, x, out []float32, mean, inv, scale, mDy, mDyXhat, hi float32, mode int)
// dx = scale*((gate(dy) - mDy) - ((x-mean)*inv)*mDyXhat), each step under
// its mode bit; len(dy) a positive multiple of 8.
//   DI dx   R8 dy   SI x   R9 out   BX byte offset   CX byte length   AX mode
//   Y2 mean  Y3 inv  Y4 scale  Y5 mDy  Y6 mDyXhat  Y14 hi  Y15 zero
TEXT ·gradInputAVX2(SB), NOSPLIT, $0-128
	MOVQ	dx_base+0(FP), DI
	MOVQ	dy_base+24(FP), R8
	MOVQ	dy_len+32(FP), CX
	MOVQ	x_base+48(FP), SI
	MOVQ	out_base+72(FP), R9
	MOVQ	mode+120(FP), AX
	VBROADCASTSS	mean+96(FP), Y2
	VBROADCASTSS	inv+100(FP), Y3
	VBROADCASTSS	scale+104(FP), Y4
	VBROADCASTSS	mDy+108(FP), Y5
	VBROADCASTSS	mDyXhat+112(FP), Y6
	VBROADCASTSS	hi+116(FP), Y14
	VXORPS	Y15, Y15, Y15
	SHLQ	$2, CX
	ADDQ	R8, CX

gin_loop8:
	VMOVUPS	(R8), Y0
	TESTQ	$4, AX
	JZ	gin_affine
	GATE8(0, Y0)

gin_affine:
	TESTQ	$1, AX
	JZ	gin_store
	TESTQ	$8, AX
	JZ	gin_scale
	VMOVUPS	(SI), Y1
	VSUBPS	Y2, Y1, Y1
	VMULPS	Y3, Y1, Y1
	VMULPS	Y6, Y1, Y1
	VSUBPS	Y5, Y0, Y0
	VSUBPS	Y1, Y0, Y0

gin_scale:
	VMULPS	Y4, Y0, Y0

gin_store:
	VMOVUPS	Y0, (DI)
	ADDQ	$32, R8
	ADDQ	$32, SI
	ADDQ	$32, R9
	ADDQ	$32, DI
	CMPQ	R8, CX
	JL	gin_loop8
	VZEROUPPER
	RET
