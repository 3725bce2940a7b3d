// AVX-512 bodies for the corruption generator's hot loops. None fuses a
// multiply-add: each product is rounded (VMULPS, VMULPD) before its sum
// (VADDPS, VADDPD), in the generic twins' order, so every image is the
// same bits on every path. Tails and partial blocks run under opmasks,
// which touch no masked-out element.

#include "go_asm.h"
#include "textflag.h"

DATA jpegIota<>+0(SB)/4, $0
DATA jpegIota<>+4(SB)/4, $1
DATA jpegIota<>+8(SB)/4, $2
DATA jpegIota<>+12(SB)/4, $3
DATA jpegIota<>+16(SB)/4, $4
DATA jpegIota<>+20(SB)/4, $5
DATA jpegIota<>+24(SB)/4, $6
DATA jpegIota<>+28(SB)/4, $7
GLOBL jpegIota<>(SB), RODATA|NOPTR, $32

DATA jpeg255<>+0(SB)/8, $255.0
GLOBL jpeg255<>(SB), RODATA|NOPTR, $8
DATA jpeg128<>+0(SB)/8, $128.0
GLOBL jpeg128<>(SB), RODATA|NOPTR, $8
DATA jpegQuarter<>+0(SB)/8, $0.25
GLOBL jpegQuarter<>(SB), RODATA|NOPTR, $8
DATA jpegHalf<>+0(SB)/8, $0.5
GLOBL jpegHalf<>(SB), RODATA|NOPTR, $8
DATA jpegOne<>+0(SB)/8, $1.0
GLOBL jpegOne<>(SB), RODATA|NOPTR, $8
DATA jpegSign<>+0(SB)/8, $0x8000000000000000
GLOBL jpegSign<>(SB), RODATA|NOPTR, $8
DATA jpegAbs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL jpegAbs<>(SB), RODATA|NOPTR, $8
DATA clampOne<>+0(SB)/4, $1.0
GLOBL clampOne<>(SB), RODATA|NOPTR, $4

// func clamp01AVX512(v []float32)
// Sets v[i] to 0 where v[i] < 0 and to 1 where v[i] > 1, and writes no
// other element: the ordered, quiet predicates are false for NaN, and −0
// is not below 0, so both stay as they are.
TEXT ·clamp01AVX512(SB), NOSPLIT, $0-24
	MOVQ	v_base+0(FP), SI
	MOVQ	v_len+8(FP), CX
	VPXORD	Z0, Z0, Z0
	VBROADCASTSS	clampOne<>(SB), Z1

clamp_loop:
	CMPQ	CX, $16
	JLT	clamp_tail
	VMOVUPS	(SI), Z2
	VCMPPS	$0x11, Z0, Z2, K1 // LT_OQ: below 0
	VCMPPS	$0x1e, Z1, Z2, K2 // GT_OQ: above 1
	VMOVUPS	Z0, K1, (SI)
	VMOVUPS	Z1, K2, (SI)
	ADDQ	$64, SI
	SUBQ	$16, CX
	JMP	clamp_loop

clamp_tail:
	TESTQ	CX, CX
	JZ	clamp_done
	MOVL	$0xffff, AX
	BZHIL	CX, AX, AX
	KMOVW	AX, K3
	VMOVUPS.Z	(SI), K3, Z2 // the lanes past the end read as 0: left alone
	VCMPPS	$0x11, Z0, Z2, K1
	VCMPPS	$0x1e, Z1, Z2, K2
	VMOVUPS	Z0, K1, (SI)
	VMOVUPS	Z1, K2, (SI)

clamp_done:
	VZEROUPPER
	RET

// func tapPlaneAVX512(o, pad []float32, h, w, pw int, taps []tap, wts []float32)
// Row y of the h×w plane o = Σ_t wts[t]·(the w pixels at column taps[t].col
// of row clamp(y+taps[t].dy, 0, h-1) of the pw-wide pad): from +0, in tap
// order, each product rounded before it is added. 32 pixels per pass, in
// two accumulators; the last pass of a row runs under masks.
TEXT ·tapPlaneAVX512(SB), NOSPLIT, $0-120
	MOVQ	o_base+0(FP), DI
	MOVQ	pad_base+24(FP), SI
	MOVQ	h+48(FP), R12
	DECQ	R12 // last row
	MOVQ	w+56(FP), CX
	MOVQ	pw+64(FP), R11
	MOVQ	taps_base+72(FP), R8
	MOVQ	wts_base+96(FP), R10
	MOVQ	wts_len+104(FP), R9
	XORQ	R13, R13 // y

tap_row:
	CMPQ	R13, R12
	JGT	tap_done
	XORQ	DX, DX // pixels done

tap_pass:
	MOVQ	CX, AX
	SUBQ	DX, AX // pixels left
	JLE	tap_next_row
	// K1: min(left, 16) lanes; K2: min(max(left-16, 0), 16) lanes.
	MOVQ	$16, BX
	CMPQ	AX, BX
	CMOVQLT	AX, BX
	MOVL	$0xffff, R14
	BZHIL	BX, R14, R14
	KMOVW	R14, K1
	MOVQ	$0, R14
	SUBQ	$16, AX
	CMOVQLT	R14, AX
	MOVQ	$16, R14
	CMPQ	AX, R14
	CMOVQGT	R14, AX
	MOVL	$0xffff, R14
	BZHIL	AX, R14, R14
	KMOVW	R14, K2

	VPXORD	Z0, Z0, Z0
	VPXORD	Z1, Z1, Z1
	XORQ	BX, BX // tap

tap_loop:
	CMPQ	BX, R9
	JGE	tap_store
	MOVLQSX	(R8)(BX*8), AX // dy
	ADDQ	R13, AX
	XORQ	R14, R14
	CMPQ	AX, R14
	CMOVQLT	R14, AX
	CMPQ	AX, R12
	CMOVQGT	R12, AX
	IMULQ	R11, AX
	MOVLQSX	4(R8)(BX*8), R14 // col
	ADDQ	R14, AX
	ADDQ	DX, AX
	LEAQ	(SI)(AX*4), R14
	VBROADCASTSS	(R10)(BX*4), Z2
	VMULPS.Z	(R14), Z2, K1, Z3
	VMULPS.Z	64(R14), Z2, K2, Z4
	VADDPS	Z3, Z0, Z0
	VADDPS	Z4, Z1, Z1
	INCQ	BX
	JMP	tap_loop

tap_store:
	VMOVUPS	Z0, K1, (DI)(DX*4)
	VMOVUPS	Z1, K2, 64(DI)(DX*4)
	ADDQ	$32, DX
	JMP	tap_pass

tap_next_row:
	LEAQ	(DI)(CX*4), DI
	INCQ	R13
	JMP	tap_row

tap_done:
	VZEROUPPER
	RET

// FWDX adds column x of block row y (BX) to the eight forward chains Z0–Z7
// (chain v, lane u): Z9 = block[y][x]·dct8[u][y] (Z8), then each chain
// adds Z9·dct8[v][x] (R14 holds dct8), the product rounded first.
#define FWDX(x) \
	VMULPD.BCST	(x*8)(BX), Z8, Z9; \
	VMULPD.BCST	(0*64+x*8)(R14), Z9, Z10; \
	VMULPD.BCST	(1*64+x*8)(R14), Z9, Z11; \
	VMULPD.BCST	(2*64+x*8)(R14), Z9, Z12; \
	VMULPD.BCST	(3*64+x*8)(R14), Z9, Z13; \
	VMULPD.BCST	(4*64+x*8)(R14), Z9, Z14; \
	VMULPD.BCST	(5*64+x*8)(R14), Z9, Z15; \
	VMULPD.BCST	(6*64+x*8)(R14), Z9, Z16; \
	VMULPD.BCST	(7*64+x*8)(R14), Z9, Z17; \
	VADDPD	Z10, Z0, Z0; \
	VADDPD	Z11, Z1, Z1; \
	VADDPD	Z12, Z2, Z2; \
	VADDPD	Z13, Z3, Z3; \
	VADDPD	Z14, Z4, Z4; \
	VADDPD	Z15, Z5, Z5; \
	VADDPD	Z16, Z6, Z6; \
	VADDPD	Z17, Z7, Z7

// QUANT quantizes chain v (acc, lane u): coef = ((s·cu)·cv)/4 (as ·¼,
// which rounds the same quotient once, as the division does), rounded
// half away from zero in units of its step as math.Round does (truncate,
// then step away from zero when the dropped fraction is at least ½; a NaN
// or ±Inf ratio stays as it is), q = round·step. It stores (cu·cv)·q at
// coef[v] and sets bit 8u+v of R13 where q != 0 (true for NaN; −0 is
// dropped).
#define QUANT(v, acc) \
	VMULPD	Z18, acc, Z9; \
	VMULPD.BCST	(jpegConsts_scale+v*8)(R11), Z9, Z9; \
	VMULPD.BCST	jpegQuarter<>(SB), Z9, Z9; \
	VMOVUPD	(jpegFrame_step+v*64)(R12), Z10; \
	VDIVPD	Z10, Z9, Z9; \
	VRNDSCALEPD	$0x0b, Z9, Z11; \
	VSUBPD	Z11, Z9, Z12; \
	VPANDQ.BCST	jpegAbs<>(SB), Z12, Z12; \
	VCMPPD.BCST	$0x1d, jpegHalf<>(SB), Z12, K2; \
	VPANDQ.BCST	jpegSign<>(SB), Z9, Z13; \
	VPORQ.BCST	jpegOne<>(SB), Z13, Z13; \
	VADDPD	Z13, Z11, K2, Z11; \
	VMULPD	Z10, Z11, Z11; \
	VCMPPD	$4, Z19, Z11, K3; \
	VMULPD	(jpegConsts_cucv+v*64)(R11), Z11, Z11; \
	VMOVUPD	Z11, (jpegFrame_coef+v*64)(R12); \
	KMOVW	K3, AX; \
	MOVQ	$(0x0101010101010101<<v), DX; \
	PDEPQ	DX, AX, AX; \
	ORQ	AX, R13

// INVY adds the current term to pixel row y's chain acc (lane x):
// (c·dct8[u][y])·dct8[v][x], the first product from col, dct8[v] in Z9.
#define INVY(y, acc, t) \
	VMULPD.BCST	(jpegFrame_col+y*8)(R12), Z9, t; \
	VADDPD	t, acc, acc

// OUTY writes pixel row y (acc) as float32((s/4 + 128)/255) to the first
// cols pixels at DI, unless the block has no row y.
#define OUTY(y, acc) \
	CMPQ	R9, $y; \
	JLE	jpeg_done; \
	VMULPD	Z20, acc, acc; \
	VADDPD	Z29, acc, acc; \
	VDIVPD	Z28, acc, acc; \
	VCVTPD2PS	acc, Y21; \
	VMOVUPS	Y21, K1, (DI); \
	ADDQ	R8, DI

// func jpegBlockAVX512(p []float32, w, rows, cols int, c *jpegConsts, f *jpegFrame)
// jpegBlockGeneric in place: the block's top-left pixel is p[0], its rows
// lie w apart, and only its first rows rows and cols columns exist; reads
// of the others clamp to the last one that does.
TEXT ·jpegBlockAVX512(SB), NOSPLIT, $0-64
	MOVQ	p_base+0(FP), SI
	MOVQ	w+24(FP), R8
	SHLQ	$2, R8 // row stride in bytes
	MOVQ	rows+32(FP), R9
	MOVQ	cols+40(FP), R10
	MOVQ	c+48(FP), R11
	MOVQ	f+56(FP), R12
	LEAQ	·dct8(SB), R14 // dct8[k] at 64k(R14)

	// K1: the first cols lanes; Y30: lane x reads column min(x, cols-1).
	MOVL	$0xff, AX
	BZHIL	R10, AX, AX
	KMOVW	AX, K1
	LEAQ	-1(R10), AX
	VPBROADCASTD	AX, Y30
	VPMINUD	jpegIota<>(SB), Y30, Y30
	VBROADCASTSD	jpeg255<>(SB), Z28
	VBROADCASTSD	jpeg128<>(SB), Z29

	// block[y][x] = float64(pixel)·255 − 128; row y reads row min(y, rows-1).
	MOVQ	SI, DI
	LEAQ	jpegFrame_block(R12), BX
	XORQ	CX, CX

jpeg_load:
	VMOVUPS.Z	(DI), K1, Y0
	VPERMPS	Y0, Y30, Y0
	VCVTPS2PD	Y0, Z0
	VMULPD	Z28, Z0, Z0
	VSUBPD	Z29, Z0, Z0
	VMOVUPD	Z0, (BX)
	ADDQ	$64, BX
	INCQ	CX
	CMPQ	CX, R9
	JGE	jpeg_same_row
	ADDQ	R8, DI

jpeg_same_row:
	CMPQ	CX, $8
	JLT	jpeg_load

	// Forward DCT: chain v (Z0–Z7), lane u, sums over y, then x.
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	VPXORQ	Z4, Z4, Z4
	VPXORQ	Z5, Z5, Z5
	VPXORQ	Z6, Z6, Z6
	VPXORQ	Z7, Z7, Z7
	LEAQ	jpegFrame_block(R12), BX
	LEAQ	jpegConsts_dctT(R11), DX
	MOVQ	$8, CX

jpeg_forward:
	VMOVUPD	(DX), Z8
	FWDX(0)
	FWDX(1)
	FWDX(2)
	FWDX(3)
	FWDX(4)
	FWDX(5)
	FWDX(6)
	FWDX(7)
	ADDQ	$64, BX
	ADDQ	$64, DX
	DECQ	CX
	JNZ	jpeg_forward

	// Quantize; R13 collects the kept terms.
	VMOVUPD	jpegConsts_scale(R11), Z18
	VPXORQ	Z19, Z19, Z19
	XORQ	R13, R13
	QUANT(0, Z0)
	QUANT(1, Z1)
	QUANT(2, Z2)
	QUANT(3, Z3)
	QUANT(4, Z4)
	QUANT(5, Z5)
	QUANT(6, Z6)
	QUANT(7, Z7)

	// Inverse DCT over the kept terms in (u, v) order: chain y (Z0–Z7),
	// lane x. A dropped term would add ±0 to a sum that started at +0,
	// which moves no sum.
	VPXORQ	Z0, Z0, Z0
	VPXORQ	Z1, Z1, Z1
	VPXORQ	Z2, Z2, Z2
	VPXORQ	Z3, Z3, Z3
	VPXORQ	Z4, Z4, Z4
	VPXORQ	Z5, Z5, Z5
	VPXORQ	Z6, Z6, Z6
	VPXORQ	Z7, Z7, Z7
	LEAQ	jpegFrame_coef(R12), BX

jpeg_inverse:
	TESTQ	R13, R13
	JZ	jpeg_store
	TZCNTQ	R13, AX // 8u + v
	BLSRQ	R13, R13
	MOVQ	AX, DX
	ANDQ	$7, DX
	SHRQ	$3, AX
	LEAQ	(AX)(DX*8), CX
	VBROADCASTSD	(BX)(CX*8), Z8
	SHLQ	$6, AX
	VMULPD	(R14)(AX*1), Z8, Z8
	VMOVUPD	Z8, jpegFrame_col(R12)
	SHLQ	$6, DX
	VMOVUPD	(R14)(DX*1), Z9
	INVY(0, Z0, Z10)
	INVY(1, Z1, Z11)
	INVY(2, Z2, Z12)
	INVY(3, Z3, Z13)
	INVY(4, Z4, Z14)
	INVY(5, Z5, Z15)
	INVY(6, Z6, Z16)
	INVY(7, Z7, Z17)
	JMP	jpeg_inverse

jpeg_store:
	VBROADCASTSD	jpegQuarter<>(SB), Z20
	MOVQ	SI, DI
	OUTY(0, Z0)
	OUTY(1, Z1)
	OUTY(2, Z2)
	OUTY(3, Z3)
	OUTY(4, Z4)
	OUTY(5, Z5)
	OUTY(6, Z6)
	OUTY(7, Z7)

jpeg_done:
	VZEROUPPER
	RET
