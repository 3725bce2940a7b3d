package tensor

import "edgetta/internal/parallel"

// Direct convolution on the packed NC8HW8 layout: the kernel walks the
// packed input in place — no im2col matrix is ever materialized.
//
// # Bit-parity with the im2col path
//
// The im2col path computes, for each output element (oc, p), the sum over
// reduction rows r = (ic, ky, kx) in ascending order of w[oc][r]*col[r][p],
// where col[r][p] is the input value under the window (or 0 in padding).
// MatMulInto's cache tiling never reorders a given element's accumulation
// (always ascending r), and its one quirk is skipping rows whose weight is
// exactly zero. The direct kernel below accumulates in the very same
// ascending-row order with one rounded multiply and one rounded add per
// step, and does not skip zero weights. The two differ therefore only in
// adding w*0 (= ±0) products the matmul skips — and adding ±0 to the
// accumulator is a bitwise no-op, because an accumulator that starts at
// +0 can never become -0 (x+(-x) = +0 and (+0)+(-0) = +0 in
// round-to-nearest). The packed lanes past C behave the same way: their
// weights and inputs are both zero. Hence for finite inputs the packed path
// is bit-identical to the im2col path, on every architecture and worker
// count — which is what lets the layer's shape alone pick the kernel
// (Conv2d.PackedEligible) and keeps im2col as the oracle the parity tests
// compare against (SetPacked).

// convSpanGrainFlops is the target work per scheduled (ocb, oy) unit,
// mirroring matmul's rowGrain sizing.
const convSpanGrainFlops = 32 * 1024

// ConvPackedForward computes one image's convolution directly on packed
// buffers: xp is the padded packed input [ICB][hp][wp][8] (see PackImage),
// wp holds the packed weights, xoff the offset table from ConvOffsets for
// the same geometry, and the result is written (not accumulated) into the
// packed output yp [OCB][hout][wout][8]. Output rows are computed in
// parallel; the per-element accumulation order is fixed by the kernel, so
// results are bit-identical for every worker count.
func ConvPackedForward(yp, xp []float32, w *PackedWeights, xoff []int32, hout, wout, hp, wpW, stride int) {
	icb, ocb := packedBlocks(w.InC), packedBlocks(w.OutC)
	rows := w.Rows()
	if len(xoff) != rows {
		panic("tensor: ConvPackedForward offset table does not match weights")
	}
	if len(xp) < icb*hp*wpW*packLanes {
		panic("tensor: ConvPackedForward packed input too short")
	}
	if len(yp) < ocb*hout*wout*packLanes {
		panic("tensor: ConvPackedForward packed output too short")
	}
	if (hout-1)*stride+w.K > hp || (wout-1)*stride+w.K > wpW {
		panic("tensor: ConvPackedForward geometry mismatch")
	}
	pixStride := stride * packLanes
	grain := convSpanGrainFlops / (2 * wout * rows * packLanes)
	if grain < 1 {
		grain = 1
	}
	parallel.ForGrain(ocb*hout, grain, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			ob, oy := u/hout, u%hout
			wSlab := w.Data[ob*rows*packLanes : (ob+1)*rows*packLanes]
			xRow := xp[oy*stride*wpW*packLanes:]
			yBase := (ob*hout + oy) * wout * packLanes
			convPackedSpan(yp[yBase:yBase+wout*packLanes], xRow, wSlab, xoff, rows, pixStride, wout)
		}
	})
}

// convPackedSpanGeneric is the portable span kernel: npix output pixels of
// one row, all 8 output-channel lanes of one block. It is the reference
// the assembly kernels must match bit for bit (same ascending-row order,
// one rounded multiply plus one rounded add per step).
func convPackedSpanGeneric(y, x, w []float32, xoff []int32, rows, pixStride, npix int) {
	for p := 0; p < npix; p++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		base := p * pixStride
		wi := 0
		for _, off := range xoff[:rows] {
			xv := x[base+int(off)]
			w8 := w[wi : wi+8 : wi+8]
			a0 += xv * w8[0]
			a1 += xv * w8[1]
			a2 += xv * w8[2]
			a3 += xv * w8[3]
			a4 += xv * w8[4]
			a5 += xv * w8[5]
			a6 += xv * w8[6]
			a7 += xv * w8[7]
			wi += 8
		}
		out := y[p*8 : p*8+8 : p*8+8]
		out[0], out[1], out[2], out[3] = a0, a1, a2, a3
		out[4], out[5], out[6], out[7] = a4, a5, a6, a7
	}
}
