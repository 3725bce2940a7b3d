// AVX2 kernels for the inner loops every figure benchmark sits on, and
// AVX-512 bodies for the conv span kernel, four of the plane kernels and
// the staging lowering.
//
// axpyAVX2 and the conv span kernels take one fused multiply-add per step
// (VFMADD213PS / VFMADD231PS): each y[i] += a*x[i] is a*x[i]+y[i] rounded
// once to float32, exactly what the generic twins compute through fma32,
// so vectorization cannot change a single output bit and the package's
// determinism contract holds across architectures and worker counts alike.
// The plane kernels and dotAVX2 never fuse.
//
// dotAVX2 accumulates in four independent 8-lane registers and reduces at
// the end in a fixed order, which dotGeneric repeats step for step, so
// dot's bits are the same on every architecture and worker count.

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
	VFMADD213PS	(DI), Y0, Y1
	VFMADD213PS	32(DI), Y0, Y2
	VFMADD213PS	64(DI), Y0, Y3
	VFMADD213PS	96(DI), Y0, Y4
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
	VFMADD213PS	(DI), Y0, Y1
	VMOVUPS	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	axpy_tail8

axpy_tail1:
	TESTQ	CX, CX
	JZ	axpy_done
	VMOVSS	(SI), X1
	VFMADD213SS	(DI), X0, X1
	VMOVSS	X1, (DI)
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

// Direct-convolution span kernels on NCHW (see conv_direct.go). For each
// output channel j of the tile and pixel p of a span,
//
//	y[j*yStride+p] = sum over rows r of w[j*wStride+r] * x[off[r]+p]
//
// in ascending r from a +0 accumulator with one VFMADD231PS per step — the
// product and the sum rounded once together, acc = fma(w, x, acc) —
// bit-identical to convSpanGeneric and (by the argument in conv_direct.go)
// to the im2col+matmul path. The AVX2 routines here take one span, their
// lanes 8 consecutive output pixels of one channel plane; convTileAVX512
// below takes a tile of 8 (or 4) channels over a whole output plane at 16
// lanes. Each AVX2 routine walks the span
// in full blocks, then in vectors of up to 8 pixels loaded and stored under
// a mask (VMASKMOVPS touches no masked-out lane), so no access falls
// outside x[:max(off)+npix] or y[:(tile-1)*yStride+npix], the extents
// convSpan checks.
//
// Registers: DI y cursor, SI x cursor, R9 off, AX rows, CX npix remaining,
// DX row counter, BX x address / tail width, R10-R13 weight rows, R8
// yStride in bytes, R14 temp; Y0-Y7 accumulators, Y8-Y9 input vectors, Y10
// weight broadcast, Y15 tail mask.

// convMask+64-4*n is a mask of n leading lanes, clamped to [0, 8], for
// -8 <= n <= 16: sixteen set lanes, then sixteen clear.
DATA convMask<>+0(SB)/8, $0xffffffffffffffff
DATA convMask<>+8(SB)/8, $0xffffffffffffffff
DATA convMask<>+16(SB)/8, $0xffffffffffffffff
DATA convMask<>+24(SB)/8, $0xffffffffffffffff
DATA convMask<>+32(SB)/8, $0xffffffffffffffff
DATA convMask<>+40(SB)/8, $0xffffffffffffffff
DATA convMask<>+48(SB)/8, $0xffffffffffffffff
DATA convMask<>+56(SB)/8, $0xffffffffffffffff
DATA convMask<>+64(SB)/8, $0
DATA convMask<>+72(SB)/8, $0
DATA convMask<>+80(SB)/8, $0
DATA convMask<>+88(SB)/8, $0
DATA convMask<>+96(SB)/8, $0
DATA convMask<>+104(SB)/8, $0
DATA convMask<>+112(SB)/8, $0
DATA convMask<>+120(SB)/8, $0
GLOBL convMask<>(SB), RODATA|NOPTR, $128

// TAILMASK leaves min(CX, 8) in BX and that many leading lanes set in Y15.
#define TAILMASK \
	MOVQ	$8, BX; \
	CMPQ	CX, BX; \
	CMOVQLT	CX, BX; \
	LEAQ	convMask<>+64(SB), R14; \
	SHLQ	$2, BX; \
	SUBQ	BX, R14; \
	SHRQ	$2, BX; \
	VMOVUPS	(R14), Y15

// ROW1 fuses row DX of the weight row at wr into one accumulator, ROW2 into
// two; the input vectors are in Y8 (and Y9).
#define ROW1(wr, a0) \
	VBROADCASTSS	(wr)(DX*4), Y10; \
	VFMADD231PS	Y8, Y10, a0

#define ROW2(wr, a0, a1) \
	ROW1(wr, a0); \
	VFMADD231PS	Y9, Y10, a1

// func convSpan4AVX2(y []float32, yStride int, x, w []float32, wStride int, off []int32, npix int)
// Four output channels; blocks of 16 pixels, then masked vectors.
TEXT ·convSpan4AVX2(SB), NOSPLIT, $0-120
	MOVQ	y_base+0(FP), DI
	MOVQ	yStride+24(FP), R8
	SHLQ	$2, R8
	MOVQ	x_base+32(FP), SI
	MOVQ	w_base+56(FP), R10
	MOVQ	wStride+80(FP), R11
	SHLQ	$2, R11
	LEAQ	(R10)(R11*2), R12
	LEAQ	(R12)(R11*1), R13
	ADDQ	R10, R11
	MOVQ	off_base+88(FP), R9
	MOVQ	off_len+96(FP), AX
	MOVQ	npix+112(FP), CX

cs4_block16:
	CMPQ	CX, $16
	JLT	cs4_tail
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	VXORPS	Y4, Y4, Y4
	VXORPS	Y5, Y5, Y5
	VXORPS	Y6, Y6, Y6
	VXORPS	Y7, Y7, Y7
	XORQ	DX, DX

cs4_rows16:
	MOVLQSX	(R9)(DX*4), BX
	LEAQ	(SI)(BX*4), BX
	VMOVUPS	(BX), Y8
	VMOVUPS	32(BX), Y9
	ROW2(R10, Y0, Y1)
	ROW2(R11, Y2, Y3)
	ROW2(R12, Y4, Y5)
	ROW2(R13, Y6, Y7)
	INCQ	DX
	CMPQ	DX, AX
	JLT	cs4_rows16
	MOVQ	DI, R14
	VMOVUPS	Y0, (R14)
	VMOVUPS	Y1, 32(R14)
	ADDQ	R8, R14
	VMOVUPS	Y2, (R14)
	VMOVUPS	Y3, 32(R14)
	ADDQ	R8, R14
	VMOVUPS	Y4, (R14)
	VMOVUPS	Y5, 32(R14)
	ADDQ	R8, R14
	VMOVUPS	Y6, (R14)
	VMOVUPS	Y7, 32(R14)
	ADDQ	$64, DI
	ADDQ	$64, SI
	SUBQ	$16, CX
	JMP	cs4_block16

cs4_tail:
	TESTQ	CX, CX
	JZ	cs4_done
	TAILMASK
	VXORPS	Y0, Y0, Y0
	VXORPS	Y2, Y2, Y2
	VXORPS	Y4, Y4, Y4
	VXORPS	Y6, Y6, Y6
	XORQ	DX, DX

cs4_rows8:
	MOVLQSX	(R9)(DX*4), R14
	VMASKMOVPS	(SI)(R14*4), Y15, Y8
	ROW1(R10, Y0)
	ROW1(R11, Y2)
	ROW1(R12, Y4)
	ROW1(R13, Y6)
	INCQ	DX
	CMPQ	DX, AX
	JLT	cs4_rows8
	MOVQ	DI, R14
	VMASKMOVPS	Y0, Y15, (R14)
	ADDQ	R8, R14
	VMASKMOVPS	Y2, Y15, (R14)
	ADDQ	R8, R14
	VMASKMOVPS	Y4, Y15, (R14)
	ADDQ	R8, R14
	VMASKMOVPS	Y6, Y15, (R14)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	BX, CX
	JMP	cs4_tail

cs4_done:
	VZEROUPPER
	RET

// func convSpan1AVX2(y, x, w []float32, off []int32, npix int)
// One output channel (a depthwise group, or the channels a tile of four
// leaves over); blocks of 32 pixels, then masked vectors.
TEXT ·convSpan1AVX2(SB), NOSPLIT, $0-104
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	w_base+48(FP), R10
	MOVQ	off_base+72(FP), R9
	MOVQ	off_len+80(FP), AX
	MOVQ	npix+96(FP), CX

cs1_block32:
	CMPQ	CX, $32
	JLT	cs1_tail
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	XORQ	DX, DX

cs1_rows32:
	MOVLQSX	(R9)(DX*4), BX
	LEAQ	(SI)(BX*4), BX
	VBROADCASTSS	(R10)(DX*4), Y10
	VFMADD231PS	(BX), Y10, Y0
	VFMADD231PS	32(BX), Y10, Y1
	VFMADD231PS	64(BX), Y10, Y2
	VFMADD231PS	96(BX), Y10, Y3
	INCQ	DX
	CMPQ	DX, AX
	JLT	cs1_rows32
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	ADDQ	$128, SI
	SUBQ	$32, CX
	JMP	cs1_block32

cs1_tail:
	TESTQ	CX, CX
	JZ	cs1_done
	TAILMASK
	VXORPS	Y0, Y0, Y0
	XORQ	DX, DX

cs1_rows8:
	MOVLQSX	(R9)(DX*4), R14
	VMASKMOVPS	(SI)(R14*4), Y15, Y8
	ROW1(R10, Y0)
	INCQ	DX
	CMPQ	DX, AX
	JLT	cs1_rows8
	VMASKMOVPS	Y0, Y15, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	BX, CX
	JMP	cs1_tail

cs1_done:
	VZEROUPPER
	RET

// The AVX-512 span kernel: the same arithmetic at 16 lanes, over nspan
// consecutive spans of npix pixels — span k reads x at k*xStep and writes
// y at k*npix — in one call, which the plan makes over a tile's whole
// output plane. Its register tile is tile output channels × 2 zmm vectors,
// channel j in Z(2j) and Z(2j+1): 8 channels (Z0-Z15), or 4 (Z0-Z7) for a
// group or remainder of 4 to 7. Each reduction row is one offset load, two
// input vectors loaded once and fed to tile weight broadcasts and 2·tile
// fused multiply-adds; the row loops take two rows per turn, and an odd
// last row on its own. The vectors are filled three ways:
//
//   - npix <= 8: 4 spans per group, 2 in each vector. A zero-masked load
//     fills a span's npix lanes, and one merge-masked load, addressed npix
//     lanes below the next span's start, fills the next npix lanes; the
//     lanes below that start are masked, so they are neither read nor
//     able to fault. The vector's lanes are then 2*npix consecutive
//     outputs, stored under one mask.
//   - 8 < npix <= 16: 2 spans per group, one in each vector.
//   - npix > 16: one span at a time, in blocks of 32 pixels.
//
// A group short of spans, or a block past the span's end, masks the lanes
// it lacks off its loads and stores, so no access leaves the extents
// convSpan checks: x[:max(off)+(nspan-1)*xStep+npix] and
// y[:(tile-1)*yStride+nspan*npix]. Only AVX512F instructions are used. BP
// is left alone, so frame-pointer unwinding sees this frame.
//
// Registers: SI x cursor, and in the row loops R14 (and with 4 spans per
// group CX and DI) the x cursor of the other loads; DI y cursor outside
// them; R8 yStride in bytes, R9 off, AX rows rounded down to even, DX row
// counter / store cursor, BX row offset / temp, R10 channel 0's weight of
// the current row, R11, R12, R13 and R15 one, three, five and seven weight
// rows in bytes (channel j's weight is R10 plus j rows, one index away),
// CX npix / pixels left; K1-K4 load masks, K5-K6 store masks; Z16-Z17 and
// Z19-Z20 the two rows' input vectors, Z18 weight broadcast. Locals: the
// spans left, where the second vector is stored, the other loads' offsets
// from SI and, with 4 spans per group, the y cursor.

// ZFMA fuses the weight at wa times i0 and i1 into a0 and a1.
#define ZFMA(wa, i0, i1, a0, a1) \
	VBROADCASTSS	wa, Z18; \
	VFMADD231PS	i0, Z18, a0; \
	VFMADD231PS	i1, Z18, a1

// ZROWS4 fuses the row d bytes past R10's, loaded in i0 and i1, into
// channels 0-3, ZROWS8 into 0-7.
#define ZROWS4(d, i0, i1) \
	ZFMA(d(R10), i0, i1, Z0, Z1); \
	ZFMA(d(R10)(R11*1), i0, i1, Z2, Z3); \
	ZFMA(d(R10)(R11*2), i0, i1, Z4, Z5); \
	ZFMA(d(R10)(R12*1), i0, i1, Z6, Z7)

#define ZROWS8(d, i0, i1) \
	ZROWS4(d, i0, i1); \
	ZFMA(d(R10)(R11*4), i0, i1, Z8, Z9); \
	ZFMA(d(R10)(R13*1), i0, i1, Z10, Z11); \
	ZFMA(d(R10)(R12*2), i0, i1, Z12, Z13); \
	ZFMA(d(R10)(R15*1), i0, i1, Z14, Z15)

// ZQUAD loads the row d bytes past DX's of four packed spans into i0 and
// i1; ZPAIR loads it at SI under K1 and at R14 under K3.
#define ZQUAD(d, i0, i1) \
	MOVLQSX	d(R9)(DX*4), BX; \
	VMOVUPS.Z	(SI)(BX*4), K1, i0; \
	VMOVUPS	(R14)(BX*4), K2, i0; \
	VMOVUPS.Z	(CX)(BX*4), K3, i1; \
	VMOVUPS	(DI)(BX*4), K4, i1

#define ZPAIR(d, i0, i1) \
	MOVLQSX	d(R9)(DX*4), BX; \
	VMOVUPS.Z	(SI)(BX*4), K1, i0; \
	VMOVUPS.Z	(R14)(BX*4), K3, i1

// ZTWO steps past two rows.
#define ZTWO \
	ADDQ	$8, R10; \
	ADDQ	$2, DX; \
	CMPQ	DX, AX

// ZZERO clears the accumulators to +0 and the row counter DX.
#define ZZERO \
	VPXORD	Z0, Z0, Z0; \
	VPXORD	Z1, Z1, Z1; \
	VPXORD	Z2, Z2, Z2; \
	VPXORD	Z3, Z3, Z3; \
	VPXORD	Z4, Z4, Z4; \
	VPXORD	Z5, Z5, Z5; \
	VPXORD	Z6, Z6, Z6; \
	VPXORD	Z7, Z7, Z7; \
	VPXORD	Z8, Z8, Z8; \
	VPXORD	Z9, Z9, Z9; \
	VPXORD	Z10, Z10, Z10; \
	VPXORD	Z11, Z11, Z11; \
	VPXORD	Z12, Z12, Z12; \
	VPXORD	Z13, Z13, Z13; \
	VPXORD	Z14, Z14, Z14; \
	VPXORD	Z15, Z15, Z15; \
	XORQ	DX, DX

// ZST stores one channel, its first vector at DX under m0 and its second
// at BX under m1, and moves DX and BX on to the next channel; ZSTORE4
// stores four.
#define ZST(a0, a1, m0, m1) \
	VMOVUPS	a0, m0, (DX); \
	VMOVUPS	a1, m1, (BX); \
	ADDQ	R8, DX; \
	ADDQ	R8, BX

#define ZSTORE4(a0, a1, a2, a3, a4, a5, a6, a7, m0, m1) \
	ZST(a0, a1, m0, m1); \
	ZST(a2, a3, m0, m1); \
	ZST(a4, a5, m0, m1); \
	ZST(a6, a7, m0, m1)

// func convTileAVX512(y []float32, yStride int, x, w []float32, wStride int, off []int32, tile, npix, nspan, xStep int)
TEXT ·convTileAVX512(SB), NOSPLIT, $40-144
	MOVQ	y_base+0(FP), DI
	MOVQ	yStride+24(FP), R8
	SHLQ	$2, R8
	MOVQ	x_base+32(FP), SI
	MOVQ	wStride+80(FP), R11
	SHLQ	$2, R11
	LEAQ	(R11)(R11*2), R12
	LEAQ	(R11)(R11*4), R13
	LEAQ	(R12)(R11*4), R15
	MOVQ	off_base+88(FP), R9
	MOVQ	off_len+96(FP), AX
	ANDQ	$-2, AX
	MOVQ	nspan+128(FP), BX
	MOVQ	BX, left-8(SP)
	MOVQ	npix+120(FP), CX
	CMPQ	CX, $16
	JGT	cz_long
	MOVL	$1, R14
	SHLL	CX, R14
	DECL	R14
	CMPQ	CX, $8
	JGT	cz_pair

	// Two spans per vector: K1/K3 the first span's lanes, K2/K4 the
	// second's; the second load npix lanes below the next span, the second
	// vector two spans on.
	KMOVW	R14, K1
	KMOVW	R14, K3
	SHLL	CX, R14
	KMOVW	R14, K2
	KMOVW	R14, K4
	MOVQ	xStep+136(FP), R14
	SHLQ	$2, R14
	LEAQ	(R14)(R14*1), BX
	MOVQ	BX, xv-32(SP)
	SHLQ	$2, CX
	SUBQ	CX, R14
	MOVQ	R14, x2-24(SP)

cz_quad:
	MOVQ	left-8(SP), BX
	CMPQ	BX, $4
	JGE	cz_quadmasks
	KXORW	K4, K4, K4
	CMPQ	BX, $3
	JGE	cz_quadmasks
	KXORW	K3, K3, K3
	CMPQ	BX, $2
	JGE	cz_quadmasks
	KXORW	K2, K2, K2

cz_quadmasks:
	KORW	K2, K1, K5
	KORW	K4, K3, K6
	ZZERO
	MOVQ	w_base+56(FP), R10
	MOVQ	DI, ycur-40(SP)
	MOVQ	x2-24(SP), R14
	ADDQ	SI, R14
	MOVQ	xv-32(SP), CX
	ADDQ	SI, CX
	MOVQ	x2-24(SP), DI
	ADDQ	CX, DI
	CMPQ	tile+112(FP), $8
	JLT	cz_quad4
	TESTQ	AX, AX
	JZ	cz_quad8odd

cz_quad8:
	ZQUAD(0, Z16, Z17)
	ZQUAD(4, Z19, Z20)
	ZROWS8(0, Z16, Z17)
	ZROWS8(4, Z19, Z20)
	ZTWO
	JLT	cz_quad8

cz_quad8odd:
	CMPQ	DX, off_len+96(FP)
	JGE	cz_quadstore
	ZQUAD(0, Z16, Z17)
	ZROWS8(0, Z16, Z17)
	JMP	cz_quadstore

cz_quad4:
	TESTQ	AX, AX
	JZ	cz_quad4odd

cz_quad4rows:
	ZQUAD(0, Z16, Z17)
	ZQUAD(4, Z19, Z20)
	ZROWS4(0, Z16, Z17)
	ZROWS4(4, Z19, Z20)
	ZTWO
	JLT	cz_quad4rows

cz_quad4odd:
	CMPQ	DX, off_len+96(FP)
	JGE	cz_quadstore
	ZQUAD(0, Z16, Z17)
	ZROWS4(0, Z16, Z17)

cz_quadstore:
	MOVQ	ycur-40(SP), DI
	MOVQ	npix+120(FP), BX
	SHLQ	$3, BX
	ADDQ	DI, BX
	MOVQ	DI, DX
	ZSTORE4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, K5, K6)
	CMPQ	tile+112(FP), $8
	JLT	cz_quadnext
	ZSTORE4(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, K5, K6)

cz_quadnext:
	MOVQ	xv-32(SP), BX
	LEAQ	(SI)(BX*2), SI
	MOVQ	npix+120(FP), BX
	SHLQ	$4, BX
	ADDQ	BX, DI
	SUBQ	$4, left-8(SP)
	JGT	cz_quad
	JMP	cz_done

	// One span per vector: K1 its lanes, K3 the second span's or none; the
	// second vector one span on, in x and in y.
cz_pair:
	KMOVW	R14, K1
	MOVQ	xStep+136(FP), R14
	SHLQ	$2, R14
	MOVQ	R14, x2-24(SP)
	SHLQ	$2, CX
	MOVQ	CX, ydisp-16(SP)

cz_pairnext:
	KMOVW	K1, K3
	CMPQ	left-8(SP), $2
	JGE	cz_body
	KXORW	K3, K3, K3
	JMP	cz_body

cz_pairdone:
	MOVQ	x2-24(SP), BX
	LEAQ	(SI)(BX*2), SI
	MOVQ	ydisp-16(SP), BX
	LEAQ	(DI)(BX*2), DI
	SUBQ	$2, left-8(SP)
	JGT	cz_pairnext
	JMP	cz_done

	// A long span in blocks of 32 pixels, the second vector 16 pixels
	// after the first; CX the span's pixels left.
cz_long:
	MOVQ	$64, R14
	MOVQ	R14, ydisp-16(SP)
	MOVQ	R14, x2-24(SP)

cz_span:
	MOVQ	npix+120(FP), CX

cz_block:
	MOVL	$0xffff, BX
	KMOVW	BX, K1
	KMOVW	BX, K3
	CMPQ	CX, $32
	JGE	cz_body
	MOVL	$1, BX
	SHLL	CX, BX
	DECL	BX
	KMOVW	BX, K1
	SHRL	$16, BX
	KMOVW	BX, K3
	JMP	cz_body

cz_blockdone:
	MOVQ	$32, BX
	CMPQ	CX, BX
	CMOVQLT	CX, BX
	SUBQ	BX, CX
	SHLQ	$2, BX
	ADDQ	BX, SI
	ADDQ	BX, DI
	TESTQ	CX, CX
	JNZ	cz_block
	MOVQ	xStep+136(FP), BX
	SUBQ	npix+120(FP), BX
	LEAQ	(SI)(BX*4), SI
	DECQ	left-8(SP)
	JNZ	cz_span
	JMP	cz_done

	// Both vectors, one load each: the first at SI under K1, the second at
	// SI+x2 under K3, stored at DI and DI+ydisp.
cz_body:
	ZZERO
	MOVQ	w_base+56(FP), R10
	MOVQ	x2-24(SP), R14
	ADDQ	SI, R14
	CMPQ	tile+112(FP), $8
	JLT	cz_body4
	TESTQ	AX, AX
	JZ	cz_body8odd

cz_body8:
	ZPAIR(0, Z16, Z17)
	ZPAIR(4, Z19, Z20)
	ZROWS8(0, Z16, Z17)
	ZROWS8(4, Z19, Z20)
	ZTWO
	JLT	cz_body8

cz_body8odd:
	CMPQ	DX, off_len+96(FP)
	JGE	cz_bodystore
	ZPAIR(0, Z16, Z17)
	ZROWS8(0, Z16, Z17)
	JMP	cz_bodystore

cz_body4:
	TESTQ	AX, AX
	JZ	cz_body4odd

cz_body4rows:
	ZPAIR(0, Z16, Z17)
	ZPAIR(4, Z19, Z20)
	ZROWS4(0, Z16, Z17)
	ZROWS4(4, Z19, Z20)
	ZTWO
	JLT	cz_body4rows

cz_body4odd:
	CMPQ	DX, off_len+96(FP)
	JGE	cz_bodystore
	ZPAIR(0, Z16, Z17)
	ZROWS4(0, Z16, Z17)

cz_bodystore:
	MOVQ	ydisp-16(SP), BX
	ADDQ	DI, BX
	MOVQ	DI, DX
	ZSTORE4(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, K1, K3)
	CMPQ	tile+112(FP), $8
	JLT	cz_bodynext
	ZSTORE4(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15, K1, K3)

cz_bodynext:
	CMPQ	npix+120(FP), $16
	JGT	cz_blockdone
	JMP	cz_pairdone

cz_done:
	VZEROUPPER
	RET

// Plane-stack moves for staging (im2col.go, conv_grad.go): one call walks
// a stack of planes, plane k of an operand starting k times its plane
// stride past its first element. The last vector of a run is loaded and
// stored under a mask, so no access leaves the extent the Go wrapper
// checked for each operand.

// LANES loads into y the mask of n leading lanes (clamped, see convMask),
// leaving n as it was; R14 holds convMask<>+64.
#define LANES(n, y) \
	NEGQ	n; \
	VMOVUPS	(R14)(n*4), y; \
	NEGQ	n

// EVENS packs the even elements of Y0:Y1 into Y0.
#define EVENS \
	VSHUFPS	$0x88, Y1, Y0, Y0; \
	VPERMPD	$0xD8, Y0, Y0

// ZIP interleaves Y0 (a) and Y1 (b) into a0 b0 … a3 b3 in Y0, a4 b4 … a7 b7
// in Y1.
#define ZIP \
	VUNPCKLPS	Y1, Y0, Y2; \
	VUNPCKHPS	Y1, Y0, Y3; \
	VPERM2F128	$0x20, Y3, Y2, Y0; \
	VPERM2F128	$0x31, Y3, Y2, Y1

// lpEvens indexes the even elements of a pair of ZMM registers for
// VPERMT2PS.
DATA lpEvens<>+0(SB)/8, $0x0000000200000000
DATA lpEvens<>+8(SB)/8, $0x0000000600000004
DATA lpEvens<>+16(SB)/8, $0x0000000a00000008
DATA lpEvens<>+24(SB)/8, $0x0000000e0000000c
DATA lpEvens<>+32(SB)/8, $0x0000001200000010
DATA lpEvens<>+40(SB)/8, $0x0000001600000014
DATA lpEvens<>+48(SB)/8, $0x0000001a00000018
DATA lpEvens<>+56(SB)/8, $0x0000001e0000001c
GLOBL lpEvens<>(SB), RODATA|NOPTR, $64

// func lowerPlanesAVX512(dst []float32, dstPlane int, src []float32, srcPlane, planes, head, rows, cols, gap, tail, srcRow, step int)
// Writes each of planes >= 1 planes of dst as head zeros, then rows runs of
// cols values, the source row of run r starting r*srcRow past the plane's
// first and read every step-th value (step 1 or 2), each run followed by
// gap zeros and the last by tail zeros. A run is nfull whole vectors and a
// last one of dl = cols − 16·nfull values, stored together with the first
// zeros after it: masks K1 and K2 load it (its two source vectors at step
// 2, whose even elements VPERMT2PS gathers), K3 stores it with the gap
// zeros and K4 with the tail zeros, and a lane past the loaded ones is
// zero, so the run and those zeros are one store. K5 stores what the gap
// leaves over a whole number of vectors, from a YMM register when it fits
// one: a narrower store crosses fewer cache lines. A run of one vector
// whose gap leaves at most 8 zeros over takes the short loops, one taken
// branch per run; the last run of a plane always takes the general one.
//
// Registers: R8/R10 the plane's first dst/src element, DI dst cursor, R9
// run source, SI its cursor, R11 srcRow in bytes, AX nfull, BX runs left,
// CX count, DX planes left, R12 bytes of the last store with the gap zeros,
// R13 bytes of gap zeros after it, R14 temp; Z30 zero, Z31 lpEvens.
TEXT ·lowerPlanesAVX512(SB), NOSPLIT, $24-128
	MOVQ	dst_base+0(FP), R8
	MOVQ	src_base+32(FP), R10
	MOVQ	srcRow+112(FP), R11
	SHLQ	$2, R11
	MOVQ	planes+64(FP), DX
	VPXORD	Z30, Z30, Z30
	VMOVDQU32	lpEvens<>(SB), Z31

	// AX = nfull, CX = dl; then the load masks.
	MOVQ	cols+88(FP), AX
	DECQ	AX
	MOVQ	AX, CX
	ANDQ	$15, CX
	INCQ	CX
	SHRQ	$4, AX
	MOVQ	$-1, R14
	CMPQ	step+120(FP), $2
	JEQ	lp5_mask2
	BZHIQ	CX, R14, R14
	KMOVW	R14, K1
	JMP	lp5_stores

lp5_mask2:
	LEAQ	-1(CX)(CX*1), R12
	BZHIQ	R12, R14, R14
	KMOVW	R14, K1
	SHRQ	$16, R14
	KMOVW	R14, K2

lp5_stores:
	// The last store of a run with the gap zeros: R12 bytes under K3, R13
	// bytes after it, the last partial vector of those under K5.
	MOVQ	gap+96(FP), R13
	ADDQ	CX, R13
	MOVQ	$16, R12
	CMPQ	R13, R12
	CMOVQLT	R13, R12
	SUBQ	R12, R13
	MOVQ	$-1, R14
	BZHIQ	R12, R14, R14
	KMOVW	R14, K3
	MOVQ	R13, BX
	ANDQ	$15, BX
	MOVQ	$-1, R14
	BZHIQ	BX, R14, R14
	KMOVW	R14, K5
	SHLQ	$2, R12
	SHLQ	$2, R13
	// The short loops: mode 1 or 2 (the step) when nfull = 0 and R13 <= 32.
	XORQ	BX, BX
	CMPQ	R13, $32
	JGT	lp5_tailstore
	TESTQ	AX, AX
	JNZ	lp5_tailstore
	MOVQ	step+120(FP), BX

lp5_tailstore:
	MOVQ	BX, mode-24(SP)
	// With the tail zeros: tadv bytes under K4, trem zeros after it.
	ADDQ	tail+104(FP), CX
	MOVQ	$16, BX
	CMPQ	CX, BX
	CMOVQLT	CX, BX
	SUBQ	BX, CX
	MOVQ	CX, trem-16(SP)
	MOVQ	$-1, R14
	BZHIQ	BX, R14, R14
	KMOVW	R14, K4
	SHLQ	$2, BX
	MOVQ	BX, tadv-8(SP)

lp5_plane:
	MOVQ	R8, DI
	MOVQ	R10, R9
	MOVQ	head+72(FP), CX

lp5_head:
	CMPQ	CX, $16
	JLT	lp5_headpart
	VMOVUPS	Z30, (DI)
	ADDQ	$64, DI
	SUBQ	$16, CX
	JMP	lp5_head

lp5_headpart:
	TESTQ	CX, CX
	JZ	lp5_runs
	MOVQ	$-1, R14
	BZHIQ	CX, R14, R14
	KMOVW	R14, K6
	VMOVUPS	Z30, K6, (DI)
	LEAQ	(DI)(CX*4), DI

lp5_runs:
	MOVQ	rows+80(FP), BX
	CMPQ	BX, $1
	JLT	lp5_nextplane
	JEQ	lp5_run
	MOVQ	mode-24(SP), CX
	CMPQ	CX, $1
	JEQ	lp5_short1
	JGT	lp5_short2

lp5_run:
	MOVQ	R9, SI
	MOVQ	AX, CX
	CMPQ	step+120(FP), $2
	JEQ	lp5_full2

lp5_full1:
	TESTQ	CX, CX
	JZ	lp5_last1
	VMOVUPS	(SI), Z0
	VMOVUPS	Z0, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	DECQ	CX
	JMP	lp5_full1

lp5_last1:
	VMOVUPS.Z	(SI), K1, Z0
	JMP	lp5_store

lp5_full2:
	TESTQ	CX, CX
	JZ	lp5_last2
	VMOVUPS	(SI), Z0
	VPERMT2PS	64(SI), Z31, Z0
	VMOVUPS	Z0, (DI)
	ADDQ	$128, SI
	ADDQ	$64, DI
	DECQ	CX
	JMP	lp5_full2

lp5_last2:
	VMOVUPS.Z	(SI), K1, Z0
	VMOVUPS.Z	64(SI), K2, Z1
	VPERMT2PS	Z1, Z31, Z0

lp5_store:
	ADDQ	R11, R9
	DECQ	BX
	JZ	lp5_lastrun
	VMOVUPS	Z0, K3, (DI)
	ADDQ	R12, DI
	MOVQ	R13, CX

lp5_gap:
	CMPQ	CX, $64
	JLT	lp5_gappart
	VMOVUPS	Z30, (DI)
	ADDQ	$64, DI
	SUBQ	$64, CX
	JMP	lp5_gap

lp5_gappart:
	TESTQ	CX, CX
	JZ	lp5_run
	CMPQ	CX, $32
	JGT	lp5_gapzmm
	VMOVUPS	Y30, K5, (DI)
	ADDQ	CX, DI
	JMP	lp5_run

lp5_gapzmm:
	VMOVUPS	Z30, K5, (DI)
	ADDQ	CX, DI
	JMP	lp5_run

lp5_short1:
	// Runs of one vector at step 1, all but the last.
	DECQ	BX
	LEAQ	(R12)(R13*1), CX

lp5_short1run:
	VMOVUPS.Z	(R9), K1, Z0
	VMOVUPS	Z0, K3, (DI)
	VMOVUPS	Y30, K5, (DI)(R12*1)
	ADDQ	R11, R9
	ADDQ	CX, DI
	DECQ	BX
	JNZ	lp5_short1run
	INCQ	BX
	JMP	lp5_run

lp5_short2:
	// Runs of one vector at step 2, all but the last.
	DECQ	BX
	LEAQ	(R12)(R13*1), CX

lp5_short2run:
	VMOVUPS.Z	(R9), K1, Z0
	VMOVUPS.Z	64(R9), K2, Z1
	VPERMT2PS	Z1, Z31, Z0
	VMOVUPS	Z0, K3, (DI)
	VMOVUPS	Y30, K5, (DI)(R12*1)
	ADDQ	R11, R9
	ADDQ	CX, DI
	DECQ	BX
	JNZ	lp5_short2run
	INCQ	BX
	JMP	lp5_run

lp5_lastrun:
	VMOVUPS	Z0, K4, (DI)
	ADDQ	tadv-8(SP), DI
	MOVQ	trem-16(SP), CX

lp5_tail:
	CMPQ	CX, $16
	JLT	lp5_tailpart
	VMOVUPS	Z30, (DI)
	ADDQ	$64, DI
	SUBQ	$16, CX
	JMP	lp5_tail

lp5_tailpart:
	TESTQ	CX, CX
	JZ	lp5_nextplane
	MOVQ	$-1, R14
	BZHIQ	CX, R14, R14
	KMOVW	R14, K6
	VMOVUPS	Z30, K6, (DI)

lp5_nextplane:
	MOVQ	dstPlane+24(FP), R14
	LEAQ	(R8)(R14*4), R8
	MOVQ	srcPlane+56(FP), R14
	LEAQ	(R10)(R14*4), R10
	DECQ	DX
	JNZ	lp5_plane
	VZEROUPPER
	RET

// func lowerPlanesAVX2(dst []float32, dstPlane int, src []float32, srcPlane, planes, head, rows, cols, gap, tail, srcRow, step int)
// lowerPlanesAVX512 on 8-lane vectors: masks Y11 and Y12 load a run's last
// vector (its two source vectors at step 2, whose even elements EVENS
// packs), Y13 stores it with the gap zeros and Y10 with the tail zeros, Y9
// stores what the gap leaves over a whole number of vectors.
//
// Registers as in lowerPlanesAVX512, without its short loops, but R13
// counts the gap zeros after the last store and R14 holds convMask+64; Y14
// zero, Y8 a zero run's last mask.
TEXT ·lowerPlanesAVX2(SB), NOSPLIT, $16-128
	MOVQ	dst_base+0(FP), R8
	MOVQ	src_base+32(FP), R10
	MOVQ	srcRow+112(FP), R11
	SHLQ	$2, R11
	MOVQ	planes+64(FP), DX
	LEAQ	convMask<>+64(SB), R14
	VXORPS	Y14, Y14, Y14

	// AX = nfull, CX = dl; then the load masks.
	MOVQ	cols+88(FP), AX
	DECQ	AX
	MOVQ	AX, CX
	ANDQ	$7, CX
	INCQ	CX
	SHRQ	$3, AX
	CMPQ	step+120(FP), $2
	JEQ	lp2_mask2
	LANES(CX, Y11)
	JMP	lp2_stores

lp2_mask2:
	LEAQ	-1(CX)(CX*1), R12
	LANES(R12, Y11)
	SUBQ	$8, R12
	LANES(R12, Y12)

lp2_stores:
	MOVQ	gap+96(FP), R13
	ADDQ	CX, R13
	MOVQ	$8, R12
	CMPQ	R13, R12
	CMOVQLT	R13, R12
	SUBQ	R12, R13
	LANES(R12, Y13)
	SHLQ	$2, R12
	MOVQ	R13, BX
	ANDQ	$7, BX
	LANES(BX, Y9)
	ADDQ	tail+104(FP), CX
	MOVQ	$8, BX
	CMPQ	CX, BX
	CMOVQLT	CX, BX
	SUBQ	BX, CX
	MOVQ	CX, trem-16(SP)
	LANES(BX, Y10)
	SHLQ	$2, BX
	MOVQ	BX, tadv-8(SP)

lp2_plane:
	MOVQ	R8, DI
	MOVQ	R10, R9
	MOVQ	head+72(FP), CX

lp2_head:
	CMPQ	CX, $8
	JLT	lp2_headpart
	VMOVUPS	Y14, (DI)
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	lp2_head

lp2_headpart:
	TESTQ	CX, CX
	JZ	lp2_runs
	LANES(CX, Y8)
	VMASKMOVPS	Y14, Y8, (DI)
	LEAQ	(DI)(CX*4), DI

lp2_runs:
	MOVQ	rows+80(FP), BX
	TESTQ	BX, BX
	JZ	lp2_nextplane

lp2_run:
	MOVQ	R9, SI
	MOVQ	AX, CX
	CMPQ	step+120(FP), $2
	JEQ	lp2_full2

lp2_full1:
	TESTQ	CX, CX
	JZ	lp2_last1
	VMOVUPS	(SI), Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	CX
	JMP	lp2_full1

lp2_last1:
	VMASKMOVPS	(SI), Y11, Y0
	JMP	lp2_store

lp2_full2:
	TESTQ	CX, CX
	JZ	lp2_last2
	VMOVUPS	(SI), Y0
	VMOVUPS	32(SI), Y1
	EVENS
	VMOVUPS	Y0, (DI)
	ADDQ	$64, SI
	ADDQ	$32, DI
	DECQ	CX
	JMP	lp2_full2

lp2_last2:
	VMASKMOVPS	(SI), Y11, Y0
	VMASKMOVPS	32(SI), Y12, Y1
	EVENS

lp2_store:
	ADDQ	R11, R9
	DECQ	BX
	JZ	lp2_lastrun
	VMASKMOVPS	Y0, Y13, (DI)
	ADDQ	R12, DI
	MOVQ	R13, CX

lp2_gap:
	CMPQ	CX, $8
	JLT	lp2_gappart
	VMOVUPS	Y14, (DI)
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	lp2_gap

lp2_gappart:
	TESTQ	CX, CX
	JZ	lp2_run
	VMASKMOVPS	Y14, Y9, (DI)
	LEAQ	(DI)(CX*4), DI
	JMP	lp2_run

lp2_lastrun:
	VMASKMOVPS	Y0, Y10, (DI)
	ADDQ	tadv-8(SP), DI
	MOVQ	trem-16(SP), CX

lp2_tail:
	CMPQ	CX, $8
	JLT	lp2_tailpart
	VMOVUPS	Y14, (DI)
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	lp2_tail

lp2_tailpart:
	TESTQ	CX, CX
	JZ	lp2_nextplane
	LANES(CX, Y8)
	VMASKMOVPS	Y14, Y8, (DI)

lp2_nextplane:
	MOVQ	dstPlane+24(FP), CX
	LEAQ	(R8)(CX*4), R8
	MOVQ	srcPlane+56(FP), CX
	LEAQ	(R10)(CX*4), R10
	DECQ	DX
	JNZ	lp2_plane
	VZEROUPPER
	RET

// func interleaveRowsAVX2(dst []float32, dstStride, dstPlane int, a []float32, aStride int, b []float32, bStride, rows, planes, n int)
// dst[k*dstPlane+r*dstStride+2i] = a[(k*rows+r)*aStride+i] and the odd
// element after it b[(k*rows+r)*bStride+i] for the n elements of each of
// rows >= 1 rows of planes >= 1 planes, or 0 where b is empty: b is read
// only under Y11, set when it is not. a and b run on across planes; within
// a row they advance by R10, dst by twice that.
TEXT ·interleaveRowsAVX2(SB), NOSPLIT, $16-128
	MOVQ	dst_base+0(FP), DI
	MOVQ	DI, plane-8(SP)
	MOVQ	planes+112(FP), CX
	MOVQ	CX, left-16(SP)
	MOVQ	dstStride+24(FP), R8
	SHLQ	$2, R8
	MOVQ	a_base+40(FP), SI
	MOVQ	aStride+64(FP), R9
	SHLQ	$2, R9
	MOVQ	b_base+72(FP), BX
	MOVQ	bStride+96(FP), R11
	SHLQ	$2, R11
	MOVQ	n+120(FP), AX
	LEAQ	convMask<>+64(SB), R14
	MOVQ	$8, R12
	CMPQ	b_len+80(FP), $0
	CMOVQEQ	b_len+80(FP), R12
	LANES(R12, Y11)

il_plane:
	MOVQ	plane-8(SP), DI
	MOVQ	dstPlane+32(FP), DX
	LEAQ	(DI)(DX*4), DX
	MOVQ	DX, plane-8(SP)
	MOVQ	rows+104(FP), DX

il_row:
	XORQ	R10, R10
	MOVQ	AX, CX

il_pairs8:
	CMPQ	CX, $16
	JLT	il_tail
	VMOVUPS	(SI)(R10*1), Y0
	VMASKMOVPS	(BX)(R10*1), Y11, Y1
	ZIP
	VMOVUPS	Y0, (DI)(R10*2)
	VMOVUPS	Y1, 32(DI)(R10*2)
	ADDQ	$32, R10
	SUBQ	$16, CX
	JMP	il_pairs8

il_tail:
	// The last 0 <= CX < 16 outputs: (CX+1)/2 from a, CX/2 from b.
	TESTQ	CX, CX
	JZ	il_next
	LEAQ	1(CX), R12
	SHRQ	$1, R12
	MOVQ	CX, R13
	SHRQ	$1, R13
	LANES(R12, Y12)
	LANES(R13, Y13)
	VANDPS	Y11, Y13, Y13
	VMASKMOVPS	(SI)(R10*1), Y12, Y0
	VMASKMOVPS	(BX)(R10*1), Y13, Y1
	ZIP
	LEAQ	-8(CX), R13
	LANES(CX, Y14)
	LANES(R13, Y15)
	VMASKMOVPS	Y0, Y14, (DI)(R10*2)
	VMASKMOVPS	Y1, Y15, 32(DI)(R10*2)

il_next:
	ADDQ	R8, DI
	ADDQ	R9, SI
	ADDQ	R11, BX
	DECQ	DX
	JNZ	il_row
	DECQ	left-16(SP)
	JNZ	il_plane
	VZEROUPPER
	RET

// Elementwise plane kernels (elementwise.go): batch-norm statistics, the
// normalize(+residual)(+rectifier) epilogue and its gradient pair. Every
// routine here takes n planes of plen elements, plane k starting at
// k*stride in each operand, with plen a whole number of vectors — the Go
// dispatcher sends a channel whose planes are not one plane at a time, the
// remainder of each to the generic twin — and, like axpyAVX2, uses only
// separately rounded VMUL/VADD/VSUB (never FMA), so each is bit-identical
// to its twin in simd_generic.go. R10 holds the stride in bytes.
//
// The reductions keep StatLanes = 16 float64 lanes in four registers;
// element i of the plane goes to lane i mod 16, so the lane a value lands
// in — and with it the order of every addition — is fixed by the data's
// position alone.
//
// Mode bits (elementwise.go): 1 affine (read by the input gradient only:
// the normalize always maps), 2 residual, 4 rectifier, 8 the statistics
// varied with the input. hi is the rectifier's cap, or NaN for
// none: VMINPS(hi, v) and the gate's hi <= v compare are both written so
// that a NaN hi never clamps and never gates. The gradient pair takes the
// forward's gamma and beta and recomputes the rectified z = gamma*xhat +
// beta with the forward's instruction sequence (VSUBPS, VMULPS, VMULPS,
// VADDPS), so its gate is the forward's bit for bit.

// func planeSumAVX2(acc *[16]float64, x []float32, plen, n, stride int)
// plen must be a positive multiple of 16, n positive.
TEXT ·planeSumAVX2(SB), NOSPLIT, $0-56
	MOVQ	acc+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	n+40(FP), R9
	MOVQ	stride+48(FP), R10
	SHLQ	$2, R10
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3

psum_plane:
	MOVQ	SI, BX
	MOVQ	plen+32(FP), CX

psum_loop16:
	VCVTPS2PD	(BX), Y4
	VCVTPS2PD	16(BX), Y5
	VCVTPS2PD	32(BX), Y6
	VCVTPS2PD	48(BX), Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$64, BX
	SUBQ	$16, CX
	JNZ	psum_loop16
	ADDQ	R10, SI
	DECQ	R9
	JNZ	psum_plane

	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

// func planeSumSqDevAVX2(acc *[16]float64, x []float32, plen, n, stride int, mean float32)
// acc[i mod 16] += float64(x[i] - mean)^2 over the planes; plen a positive
// multiple of 16.
TEXT ·planeSumSqDevAVX2(SB), NOSPLIT, $0-60
	MOVQ	acc+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	n+40(FP), R9
	MOVQ	stride+48(FP), R10
	SHLQ	$2, R10
	VBROADCASTSS	mean+56(FP), Y8
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3

psq_plane:
	MOVQ	SI, BX
	MOVQ	plen+32(FP), CX

psq_loop16:
	VMOVUPS	(BX), Y4
	VMOVUPS	32(BX), Y6
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
	ADDQ	$64, BX
	SUBQ	$16, CX
	JNZ	psq_loop16
	ADDQ	R10, SI
	DECQ	R9
	JNZ	psq_plane

	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VZEROUPPER
	RET

// func normalizeAVX2(y, x, res []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)
// y = rect(gamma*((x-mean)*inv) + beta + res), the residual and the
// rectifier each under its mode bit; plen a positive multiple of 8. The mode tests are loop-invariant
// branches: perfectly predicted, and cheaper than one loop per mode.
//   DI y   SI x   DX res (plane starts)   BX byte offset   CX byte length
//   AX mode   R9 planes left
//   Y8 mean  Y9 inv  Y10 gamma  Y11 beta  Y12 hi  Y13 zero
TEXT ·normalizeAVX2(SB), NOSPLIT, $0-128
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	res_base+48(FP), DX
	MOVQ	plen+72(FP), CX
	MOVQ	n+80(FP), R9
	MOVQ	stride+88(FP), R10
	SHLQ	$2, R10
	MOVQ	mode+120(FP), AX
	VBROADCASTSS	mean+96(FP), Y8
	VBROADCASTSS	inv+100(FP), Y9
	VBROADCASTSS	gamma+104(FP), Y10
	VBROADCASTSS	beta+108(FP), Y11
	VBROADCASTSS	hi+112(FP), Y12
	VXORPS	Y13, Y13, Y13
	SHLQ	$2, CX

norm_plane:
	XORQ	BX, BX

norm_loop8:
	VMOVUPS	(SI)(BX*1), Y0
	VSUBPS	Y8, Y0, Y0
	VMULPS	Y9, Y0, Y0
	VMULPS	Y10, Y0, Y0
	VADDPS	Y11, Y0, Y0
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
	ADDQ	R10, DI
	ADDQ	R10, SI
	ADDQ	R10, DX
	DECQ	R9
	JNZ	norm_plane
	VZEROUPPER
	RET

// GATE8 zeroes (to +0) the lanes of DY whose value in V did not pass the
// rectifier: pass = v > 0 && !(hi <= v), v being the recomputed z or the
// saved output. Clobbers V and T; expects Y14 = hi, Y15 = zero.
#define GATE8(V, T, DY) \
	VCMPPS	$0x12, V, Y14, T; \
	VCMPPS	$0x1E, Y15, V, V; \
	VANDNPS	V, T, V; \
	VANDPS	V, DY, DY

// XHAT8 sets Y9 to the 8 inputs at OFF(SI) as xhat = (x-mean)*inv;
// expects Y12 = mean, Y13 = inv.
#define XHAT8(OFF) \
	VMOVUPS	OFF(SI), Y9; \
	VSUBPS	Y12, Y9, Y9; \
	VMULPS	Y13, Y9, Y9

// ZGATE8 recomputes z = gamma*xhat + beta from the xhat in Y9, gamma and
// beta broadcast in the frame's locals, and gates the gradients in Y8 by
// it. Clobbers Y10, Y11.
#define ZGATE8 \
	VMULPS	gamma-64(SP), Y9, Y10; \
	VADDPS	beta-32(SP), Y10, Y10; \
	GATE8(Y10, Y11, Y8)

// SUMS8 folds 8 gradients (in Y8) and their xhat (in Y9) into the lanes
// S0:S1 (sum dy) and P0:P1 (sum dy*xhat), in float64. Clobbers Y8-Y11.
#define SUMS8(S0, S1, P0, P1) \
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

// func gradSumsAVX2(sumDy, sumDyXhat *[16]float64, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)
// plen a positive multiple of 16. Under the rectifier bit dy is gated by
// z = gamma*xhat + beta, the value the forward rectified, recomputed in
// the forward's rounding. Every ymm register is taken, so gamma and beta
// are broadcast into the frame and read from there.
//   R8 dy   SI x (cursors)   R11-R12 their plane starts
//   CX remaining   R14 planes left   AX mode   DI, DX lane sets
//   Y0-Y3 sum dy   Y4-Y7 sum dy*xhat   Y12 mean  Y13 inv  Y14 hi  Y15 zero
TEXT ·gradSumsAVX2(SB), NOSPLIT, $64-120
	MOVQ	sumDy+0(FP), DI
	MOVQ	sumDyXhat+8(FP), DX
	MOVQ	dy_base+16(FP), R11
	MOVQ	x_base+40(FP), R12
	MOVQ	n+72(FP), R14
	MOVQ	stride+80(FP), R10
	SHLQ	$2, R10
	MOVQ	mode+112(FP), AX
	VBROADCASTSS	gamma+96(FP), Y8
	VMOVUPS	Y8, gamma-64(SP)
	VBROADCASTSS	beta+100(FP), Y8
	VMOVUPS	Y8, beta-32(SP)
	VBROADCASTSS	mean+88(FP), Y12
	VBROADCASTSS	inv+92(FP), Y13
	VBROADCASTSS	hi+104(FP), Y14
	VXORPS	Y15, Y15, Y15
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VMOVUPD	(DX), Y4
	VMOVUPD	32(DX), Y5
	VMOVUPD	64(DX), Y6
	VMOVUPD	96(DX), Y7

gsum_plane:
	MOVQ	R11, R8
	MOVQ	R12, SI
	MOVQ	plen+64(FP), CX

gsum_loop16:
	VMOVUPS	(R8), Y8
	XHAT8(0)
	TESTQ	$4, AX
	JZ	gsum_lo
	ZGATE8

gsum_lo:
	SUMS8(Y0, Y1, Y4, Y5)
	VMOVUPS	32(R8), Y8
	XHAT8(32)
	TESTQ	$4, AX
	JZ	gsum_hi
	ZGATE8

gsum_hi:
	SUMS8(Y2, Y3, Y6, Y7)
	ADDQ	$64, R8
	ADDQ	$64, SI
	SUBQ	$16, CX
	JNZ	gsum_loop16
	ADDQ	R10, R11
	ADDQ	R10, R12
	DECQ	R14
	JNZ	gsum_plane

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

// func gradInputAVX2(dx, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, scale, mDy, mDyXhat, hi float32, mode int)
// dx = scale*((gate(dy) - mDy) - ((x-mean)*inv)*mDyXhat), each step under
// its mode bit; plen a positive multiple of 8. x is loaded under the
// rectifier or the vary bit. With the affine bit the gate is z =
// gamma*xhat + beta, recomputed; without, x is the rectifier's saved
// output and gates by itself.
//   DI dx   R8 dy   SI x (cursors)   R11-R13 their plane starts
//   CX end of the dy plane   R14 planes left   AX mode
//   Y2 mean  Y3 inv  Y4 scale  Y5 mDy  Y6 mDyXhat  Y12 gamma  Y13 beta
//   Y14 hi  Y15 zero
TEXT ·gradInputAVX2(SB), NOSPLIT, $0-136
	MOVQ	dx_base+0(FP), R11
	MOVQ	dy_base+24(FP), R12
	MOVQ	x_base+48(FP), R13
	MOVQ	n+80(FP), R14
	MOVQ	stride+88(FP), R10
	SHLQ	$2, R10
	MOVQ	mode+128(FP), AX
	VBROADCASTSS	mean+96(FP), Y2
	VBROADCASTSS	inv+100(FP), Y3
	VBROADCASTSS	gamma+104(FP), Y12
	VBROADCASTSS	beta+108(FP), Y13
	VBROADCASTSS	scale+112(FP), Y4
	VBROADCASTSS	mDy+116(FP), Y5
	VBROADCASTSS	mDyXhat+120(FP), Y6
	VBROADCASTSS	hi+124(FP), Y14
	VXORPS	Y15, Y15, Y15

gin_plane:
	MOVQ	R11, DI
	MOVQ	R12, R8
	MOVQ	R13, SI
	MOVQ	plen+72(FP), CX
	SHLQ	$2, CX
	ADDQ	R8, CX

gin_loop8:
	VMOVUPS	(R8), Y0
	TESTQ	$12, AX
	JZ	gin_affine
	VMOVUPS	(SI), Y1
	VMOVAPS	Y1, Y7
	TESTQ	$1, AX
	JZ	gin_gate
	VSUBPS	Y2, Y1, Y1
	VMULPS	Y3, Y1, Y1
	VMULPS	Y12, Y1, Y7
	VADDPS	Y13, Y7, Y7

gin_gate:
	TESTQ	$4, AX
	JZ	gin_affine
	GATE8(Y7, Y10, Y0)

gin_affine:
	TESTQ	$1, AX
	JZ	gin_store
	TESTQ	$8, AX
	JZ	gin_scale
	VMULPS	Y6, Y1, Y1
	VSUBPS	Y5, Y0, Y0
	VSUBPS	Y1, Y0, Y0

gin_scale:
	VMULPS	Y4, Y0, Y0

gin_store:
	VMOVUPS	Y0, (DI)
	ADDQ	$32, R8
	ADDQ	$32, SI
	ADDQ	$32, DI
	CMPQ	R8, CX
	JL	gin_loop8
	ADDQ	R10, R11
	ADDQ	R10, R12
	ADDQ	R10, R13
	DECQ	R14
	JNZ	gin_plane
	VZEROUPPER
	RET

// The plane kernels at AVX-512 width, one call per channel: x (and every
// other operand) holds n planes of plen elements, plane k starting at
// k*stride, and a call walks them all in ascending order. StatLanes = 16
// float64 lanes are exactly two zmm, so lane i mod 16 of a plane's element
// i is lane i mod 8 of Z0 (i mod 16 < 8) or of Z1, as the AVX2 bodies'
// four ymm hold them, and every lane receives the same additions in the
// same order. A plane is walked in blocks of 16 elements, then a tail of
// plen mod 16 under a mask: its loads are zero-masked, its stores and its
// lane additions merge-masked, so no access leaves a plane and no lane
// outside the tail changes (not even a -0 to +0). Mode bits become opmasks
// of all or no lanes, so the map kernels test no mode inside the loop: a
// step whose bit is off runs merge-masked to nothing, and an optional
// operand that is absent is another operand of the call (the Go wrapper
// passes one), read under a zero mask. Only AVX512F instructions are used.
//
// Shared registers: R9 planes left, R10 stride in bytes, R11 blocks per
// plane, BX byte offset in the plane, K7 the tail's lanes (empty when
// plen is a multiple of 16), K5/K6 its low and high eight as float64
// lanes.

// TAILMASKS sets R11 = plen/16 and the tail masks K5-K7 from plen in CX.
#define TAILMASKS \
	MOVQ	CX, R11; \
	SHRQ	$4, R11; \
	ANDQ	$15, CX; \
	MOVL	$1, BX; \
	SHLL	CX, BX; \
	DECL	BX; \
	KMOVW	BX, K7; \
	KMOVW	BX, K5; \
	SHRL	$8, BX; \
	KMOVW	BX, K6

// MODEMASK sets k to all lanes when bit number b of AX is set, else to
// none; clobbers BX.
#define MODEMASK(b, k) \
	MOVQ	AX, BX; \
	SHRQ	$b, BX; \
	ANDQ	$1, BX; \
	NEGQ	BX; \
	KMOVW	BX, k

// WIDEN converts the 16 float32 in zs to float64 in zlo (elements 0-7) and
// zhi (8-15); yhi is zhi's low half.
#define WIDEN(zs, ys, zlo, zhi, yhi) \
	VCVTPS2PD	ys, zlo; \
	VEXTRACTF64X4	$1, zs, yhi; \
	VCVTPS2PD	yhi, zhi

// SQDEV16 adds float64(v-mean)^2 of the 16 float32 in Z4 into Z0:Z1 under
// masks k0, k1; Z8 = mean.
#define SQDEV16(k0, k1) \
	VSUBPS	Z8, Z4, Z4; \
	WIDEN(Z4, Y4, Z2, Z3, Y3); \
	VMULPD	Z2, Z2, Z2; \
	VMULPD	Z3, Z3, Z3; \
	VADDPD	Z2, Z0, k0, Z0; \
	VADDPD	Z3, Z1, k1, Z1

// func sumSqDevPlanesAVX512(acc *[16]float64, x []float32, plen, n, stride int, mean float32)
// acc[i mod 16] += float64(x[k*stride+i] - mean)^2 for each plane k < n,
// i < plen; n, plen >= 1. K4 is all lanes.
//   SI plane   Z0, Z1 lanes   Z2-Z4 temps   Z8 mean
TEXT ·sumSqDevPlanesAVX512(SB), NOSPLIT, $0-60
	MOVQ	acc+0(FP), DI
	MOVQ	x_base+8(FP), SI
	MOVQ	plen+32(FP), CX
	MOVQ	n+40(FP), R9
	MOVQ	stride+48(FP), R10
	SHLQ	$2, R10
	VBROADCASTSS	mean+56(FP), Z8
	TAILMASKS
	KXNORW	K4, K4, K4
	VMOVUPD	(DI), Z0
	VMOVUPD	64(DI), Z1

zsq_plane:
	XORQ	BX, BX
	MOVQ	R11, CX
	TESTQ	CX, CX
	JZ	zsq_tail

zsq_block:
	VMOVUPS	(SI)(BX*1), Z4
	SQDEV16(K4, K4)
	ADDQ	$64, BX
	DECQ	CX
	JNZ	zsq_block

zsq_tail:
	KORTESTW	K7, K7
	JZ	zsq_next
	VMOVUPS.Z	(SI)(BX*1), K7, Z4
	SQDEV16(K5, K6)

zsq_next:
	ADDQ	R10, SI
	DECQ	R9
	JNZ	zsq_plane
	VMOVUPD	Z0, (DI)
	VMOVUPD	Z1, 64(DI)
	VZEROUPPER
	RET

// NORM16 maps the 16 inputs in Z0 as normalizeAVX2 does, the rectifier
// under its mode mask K3, the residual added from (DX)(BX*1) under kr
// (K2, or K2 and the tail).
#define NORM16(kr) \
	VSUBPS	Z8, Z0, Z0; \
	VMULPS	Z9, Z0, Z0; \
	VMULPS	Z10, Z0, Z0; \
	VADDPS	Z11, Z0, Z0; \
	VADDPS	(DX)(BX*1), Z0, kr, Z0; \
	VMAXPS	Z13, Z0, K3, Z0; \
	VMINPS	Z0, Z12, K3, Z0

// func normalizePlanesAVX512(y, x, res []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)
// y = rect(gamma*((x-mean)*inv) + beta + res) over the planes, the
// residual and the rectifier each under its mode bit; y may be x. res is
// read only under its bit.
//   DI y   SI x   DX res (plane starts)   K4 residual lanes of the tail
//   Z8 mean  Z9 inv  Z10 gamma  Z11 beta  Z12 hi  Z13 zero
TEXT ·normalizePlanesAVX512(SB), NOSPLIT, $0-128
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	res_base+48(FP), DX
	MOVQ	n+80(FP), R9
	MOVQ	stride+88(FP), R10
	SHLQ	$2, R10
	VBROADCASTSS	mean+96(FP), Z8
	VBROADCASTSS	inv+100(FP), Z9
	VBROADCASTSS	gamma+104(FP), Z10
	VBROADCASTSS	beta+108(FP), Z11
	VBROADCASTSS	hi+112(FP), Z12
	VPXORD	Z13, Z13, Z13
	MOVQ	mode+120(FP), AX
	MODEMASK(1, K2)
	MODEMASK(2, K3)
	MOVQ	plen+72(FP), CX
	TAILMASKS
	KANDW	K2, K7, K4

znorm_plane:
	XORQ	BX, BX
	MOVQ	R11, CX
	TESTQ	CX, CX
	JZ	znorm_tail

znorm_block:
	VMOVUPS	(SI)(BX*1), Z0
	NORM16(K2)
	VMOVUPS	Z0, (DI)(BX*1)
	ADDQ	$64, BX
	DECQ	CX
	JNZ	znorm_block

znorm_tail:
	KORTESTW	K7, K7
	JZ	znorm_next
	VMOVUPS.Z	(SI)(BX*1), K7, Z0
	NORM16(K4)
	VMOVUPS	Z0, K7, (DI)(BX*1)

znorm_next:
	ADDQ	R10, DI
	ADDQ	R10, SI
	ADDQ	R10, DX
	DECQ	R9
	JNZ	znorm_plane
	VZEROUPPER
	RET

// ZGATE16 zeroes (to +0) the lanes of dy in zd whose value in zv did not
// pass the rectifier: pass = v > 0 && !(hi <= v), or every lane when K3
// (no rectifier) is set. Clobbers K1, K2; expects Z14 = hi, Z15 = zero.
#define ZGATE16(zv, zd) \
	VCMPPS	$0x1E, Z15, zv, K1; \
	VCMPPS	$0x12, zv, Z14, K2; \
	KANDNW	K1, K2, K1; \
	KORW	K3, K1, K1; \
	VMOVUPS.Z	zd, K1, zd

// GSUMS16 loads the inputs from (SI)(BX*1) under kl, gates the 16
// gradients in Z8 by z = gamma*xhat + beta recomputed from them, and folds
// gradients and xhat into Z0:Z1 (sum dy) and Z2:Z3 (sum dy*xhat) under
// masks k0, k1. Clobbers Z4-Z7, Z9.
#define GSUMS16(kl, k0, k1) \
	VMOVUPS.Z	(SI)(BX*1), kl, Z9; \
	VSUBPS	Z12, Z9, Z9; \
	VMULPS	Z13, Z9, Z9; \
	VMULPS	Z16, Z9, Z7; \
	VADDPS	Z17, Z7, Z7; \
	ZGATE16(Z7, Z8); \
	WIDEN(Z8, Y8, Z4, Z5, Y5); \
	WIDEN(Z9, Y9, Z6, Z7, Y7); \
	VADDPD	Z4, Z0, k0, Z0; \
	VADDPD	Z5, Z1, k1, Z1; \
	VMULPD	Z4, Z6, Z6; \
	VMULPD	Z5, Z7, Z7; \
	VADDPD	Z6, Z2, k0, Z2; \
	VADDPD	Z7, Z3, k1, Z3

// func gradSumsPlanesAVX512(sumDy, sumDyXhat *[16]float64, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)
// The sums of gradSumsAVX2 over the planes. K4 is all lanes.
//   R8 dy   SI x (plane starts)   DI, DX lane sets
//   Z0:Z1 sum dy   Z2:Z3 sum dy*xhat   Z12 mean  Z13 inv  Z14 hi  Z15 zero
//   Z16 gamma  Z17 beta
TEXT ·gradSumsPlanesAVX512(SB), NOSPLIT, $0-120
	MOVQ	sumDy+0(FP), DI
	MOVQ	sumDyXhat+8(FP), DX
	MOVQ	dy_base+16(FP), R8
	MOVQ	x_base+40(FP), SI
	MOVQ	n+72(FP), R9
	MOVQ	stride+80(FP), R10
	SHLQ	$2, R10
	VBROADCASTSS	mean+88(FP), Z12
	VBROADCASTSS	inv+92(FP), Z13
	VBROADCASTSS	gamma+96(FP), Z16
	VBROADCASTSS	beta+100(FP), Z17
	VBROADCASTSS	hi+104(FP), Z14
	VPXORD	Z15, Z15, Z15
	MOVQ	mode+112(FP), AX
	XORQ	$4, AX
	MODEMASK(2, K3)
	MOVQ	plen+64(FP), CX
	TAILMASKS
	KXNORW	K4, K4, K4
	VMOVUPD	(DI), Z0
	VMOVUPD	64(DI), Z1
	VMOVUPD	(DX), Z2
	VMOVUPD	64(DX), Z3

zgs_plane:
	XORQ	BX, BX
	MOVQ	R11, CX
	TESTQ	CX, CX
	JZ	zgs_tail

zgs_block:
	VMOVUPS	(R8)(BX*1), Z8
	GSUMS16(K4, K4, K4)
	ADDQ	$64, BX
	DECQ	CX
	JNZ	zgs_block

zgs_tail:
	KORTESTW	K7, K7
	JZ	zgs_next
	VMOVUPS.Z	(R8)(BX*1), K7, Z8
	GSUMS16(K7, K5, K6)

zgs_next:
	ADDQ	R10, R8
	ADDQ	R10, SI
	DECQ	R9
	JNZ	zgs_plane
	VMOVUPD	Z0, (DI)
	VMOVUPD	Z1, 64(DI)
	VMOVUPD	Z2, (DX)
	VMOVUPD	Z3, 64(DX)
	VZEROUPPER
	RET

// GIN16 maps the 16 gradients in Z0 as gradInputAVX2 does. The inputs,
// loaded from (SI)(BX*1) under kl, become xhat and then z under K5
// (affine) — without it they are the saved output the gate reads — the
// gradients are gated, and then under K5 scaled, after the two
// subtractions under K6 (affine and vary). Clobbers Z1, Z7.
#define GIN16(kl) \
	VMOVUPS.Z	(SI)(BX*1), kl, Z1; \
	VSUBPS	Z8, Z1, K5, Z1; \
	VMULPS	Z9, Z1, K5, Z1; \
	VMOVUPS	Z1, Z7; \
	VMULPS	Z16, Z1, K5, Z7; \
	VADDPS	Z17, Z7, K5, Z7; \
	ZGATE16(Z7, Z0); \
	VMULPS	Z12, Z1, Z1; \
	VSUBPS	Z11, Z0, K6, Z0; \
	VSUBPS	Z1, Z0, K6, Z0; \
	VMULPS	Z10, Z0, K5, Z0

// func gradInputPlanesAVX512(dx, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, scale, mDy, mDyXhat, hi float32, mode int)
// dx = scale*((gate(dy) - mDy) - ((x-mean)*inv)*mDyXhat) over the planes,
// each step under its mode bit; dx may be dy. x is read as
// gradInputAVX2 reads it; the Go wrapper passes dy in its place when
// neither bit that reads it is set. The tail's lanes are in K4 here (K5/K6
// hold modes).
//   DI dx   R8 dy   SI x (plane starts)
//   Z8 mean  Z9 inv  Z10 scale  Z11 mDy  Z12 mDyXhat  Z14 hi  Z15 zero
//   Z16 gamma  Z17 beta
TEXT ·gradInputPlanesAVX512(SB), NOSPLIT, $0-136
	MOVQ	dx_base+0(FP), DI
	MOVQ	dy_base+24(FP), R8
	MOVQ	x_base+48(FP), SI
	MOVQ	n+80(FP), R9
	MOVQ	stride+88(FP), R10
	SHLQ	$2, R10
	VBROADCASTSS	mean+96(FP), Z8
	VBROADCASTSS	inv+100(FP), Z9
	VBROADCASTSS	gamma+104(FP), Z16
	VBROADCASTSS	beta+108(FP), Z17
	VBROADCASTSS	scale+112(FP), Z10
	VBROADCASTSS	mDy+116(FP), Z11
	VBROADCASTSS	mDyXhat+120(FP), Z12
	VBROADCASTSS	hi+124(FP), Z14
	VPXORD	Z15, Z15, Z15
	MOVQ	plen+72(FP), CX
	TAILMASKS
	KMOVW	K7, K4
	MOVQ	mode+128(FP), AX
	MODEMASK(0, K5)
	MOVQ	AX, CX
	SHRQ	$3, CX
	ANDQ	CX, AX
	MODEMASK(0, K6)
	MOVQ	mode+128(FP), AX
	XORQ	$4, AX
	MODEMASK(2, K3)
	KXNORW	K7, K7, K7

zgi_plane:
	XORQ	BX, BX
	MOVQ	R11, CX
	TESTQ	CX, CX
	JZ	zgi_tail

zgi_block:
	VMOVUPS	(R8)(BX*1), Z0
	GIN16(K7)
	VMOVUPS	Z0, (DI)(BX*1)
	ADDQ	$64, BX
	DECQ	CX
	JNZ	zgi_block

zgi_tail:
	KORTESTW	K4, K4
	JZ	zgi_next
	VMOVUPS.Z	(R8)(BX*1), K4, Z0
	GIN16(K4)
	VMOVUPS	Z0, K4, (DI)(BX*1)

zgi_next:
	ADDQ	R10, DI
	ADDQ	R10, R8
	ADDQ	R10, SI
	DECQ	R9
	JNZ	zgi_plane
	VZEROUPPER
	RET
