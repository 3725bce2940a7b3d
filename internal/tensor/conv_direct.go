package tensor

import (
	"math"
	"sync/atomic"

	"edgetta/internal/parallel"
)

// Direct convolution on NCHW, in place: the SIMD lanes of the kernel are 8
// (AVX2) or 16 (AVX-512) output pixels of one channel plane, a register
// tile is a few output channels × a few pixel vectors, and every reduction
// row r = (ic, ky, kx) is one unaligned vector load from the input plane at
// a precomputed offset plus one weight broadcast per output channel, read
// straight from the layer's [OutC, InC/Groups·K·K] weight matrix. An output
// plane is a run of spans (its rows, or the whole plane). One kernel call
// takes a tile of 8 output channels over every span of the plane; the
// AVX-512 kernel holds that tile as 8 channels × 32 pixels, so each input
// load feeds 8 fused multiply-adds, and packs short spans side by side
// into its vectors, so 8- and 16-pixel rows fill its lanes as well as long
// ones. No layout conversion, no im2col matrix,
// no derived copy of the weights; the output is written where the next
// layer reads it. A stride-1 unpadded convolution reads the input where it
// lies; every other shape is staged once per image (ConvPlan.Stage). A
// group restricts the reduction rows and the output-channel tile to that
// group's channels; depthwise is the one-channel case.
//
// # Bit-parity with the im2col path
//
// The im2col path computes, for each output element (oc, p), the sum over
// reduction rows r in ascending order of w[oc][r]*col[r][p], where
// col[r][p] is the input value under the window (or 0 in padding).
// MatMulInto's cache tiling never reorders a given element's accumulation
// (always ascending r), and its one quirk is skipping rows whose weight is
// exactly zero. Both paths take one fused multiply-add per step, acc =
// fma(w, x, acc) rounded once (axpy under the matmul, the span kernels
// here, fma32 off the vector paths), and the kernel here accumulates in
// the very same ascending-row order from a +0 accumulator and does not
// skip zero weights. The two differ therefore only in the steps whose
// product w*x is ±0, which the matmul skips — zero weights, and the staged
// zero border — and such a step is a bitwise no-op: fma(w, x, acc) with an
// exactly zero product is acc + (±0) rounded once, which is acc itself, and
// an accumulator that starts at +0 can never become -0 (an exact zero sum
// is +0 in round-to-nearest unless both addends are -0). There are no
// padded lanes: lanes a vector's spans do not fill are loaded and stored
// under a mask, and every lane of a 16-lane fused multiply-add rounds as an
// 8-lane or scalar one does. Hence for finite inputs the kernel is
// bit-identical to the im2col path, on every architecture and worker
// count, which keeps im2col as the oracle the parity tests compare against
// (SetPacked).

// oracleOnly sends every forward to the im2col path; see SetPacked.
var oracleOnly atomic.Bool

// SetPacked is the oracle hook: SetPacked(false) makes every forward
// convolution take the im2col+matmul path, which the direct kernel must
// match bit for bit. Its callers are the parity tests and bench/micro.go
// (which times the im2col lowering); no binary, flag or environment
// variable reaches it, and a test pins that (TestProcessSwitchesArePinned).
// The name dates from the channel-packed layout the direct path used to
// run on.
func SetPacked(on bool) { oracleOnly.Store(!on) }

// PackedEnabled reports whether SetPacked(false) is not in effect.
func PackedEnabled() bool { return !oracleOnly.Load() }

// ConvShape is one convolution's geometry over a single [InC, H, W] image.
type ConvShape struct {
	InC, OutC, H, W        int
	K, Stride, Pad, Groups int
}

// OutH returns the output height.
func (s ConvShape) OutH() int { return (s.H+2*s.Pad-s.K)/s.Stride + 1 }

// OutW returns the output width.
func (s ConvShape) OutW() int { return (s.W+2*s.Pad-s.K)/s.Stride + 1 }

// InPlace reports whether the kernel reads the NCHW input where it lies;
// every other shape is staged first (ConvPlan.Stage).
func (s ConvShape) InPlace() bool { return s.Pad == 0 && s.Stride == 1 }

// valid reports whether s is a convolution with at least one output pixel.
func (s ConvShape) valid() bool {
	return s.K >= 1 && s.Stride >= 1 && s.Pad >= 0 && s.Groups >= 1 && s.InC%s.Groups == 0 && s.OutC%s.Groups == 0 &&
		s.H+2*s.Pad >= s.K && s.W+2*s.Pad >= s.K
}

// ConvPlan is a ConvShape with the kernel's addressing worked out. The
// kernel sees each input channel as res×res sub-planes of subH×subW values,
// sub-plane (py, px) holding the zero-padded input at rows ≡ py and columns
// ≡ px modulo the stride: output pixel (oy, ox) under tap (ky, kx) reads
// sub-plane (ky%s, kx%s) at (oy+ky/s, ox+kx/s), so an output row is a
// contiguous run in every tap. In place there is one sub-plane per
// channel, the input plane itself.
type ConvPlan struct {
	ConvShape
	res        int // residues per axis that a tap can have: min(K, Stride)
	subH, subW int // sub-plane geometry
	offsets        // reduction row → offset from a group's span origin
	// An output plane is spans runs of spanPix pixels: its rows, or the
	// whole plane when sub-plane and output rows are equally long (K ≤
	// Stride), which keeps the vectors full on small planes. One kernel
	// call takes every span.
	spans, spanPix int
}

// offsets is a reduction row → input offset table and its largest entry,
// which bounds the input a span reads. newOffsets is the only way to make
// one, so convSpan can check the input's extent from max alone.
type offsets struct {
	off []int32
	max int
}

// newOffsets wraps the offset table off, which it refuses if an entry is
// negative.
func newOffsets(off []int32) offsets {
	o := offsets{off: off}
	for _, v := range off {
		if v < 0 {
			panic("tensor: negative kernel offset")
		}
		o.max = max(o.max, int(v))
	}
	return o
}

// convTile is the output-channel height of a scheduled unit and of the
// AVX-512 kernel's register tile.
const convTile = 8

// convSpanGrainFlops is the target work per scheduled (group, tile) unit,
// mirroring matmul's rowGrain sizing.
const convSpanGrainFlops = 32 * 1024

// NewConvPlan works out the addressing for s. It depends on the geometry
// alone, so one plan serves every image of a batch.
func NewConvPlan(s ConvShape) *ConvPlan {
	if !s.valid() {
		panic("tensor: NewConvPlan geometry invalid")
	}
	p := &ConvPlan{ConvShape: s, res: min(s.K, s.Stride), spans: s.OutH(), spanPix: s.OutW()}
	q := (s.K - 1) / s.Stride
	p.subH, p.subW = s.OutH()+q, s.OutW()+q
	if q == 0 {
		p.spans, p.spanPix = 1, s.OutH()*s.OutW()
	}
	inCg := s.InC / s.Groups
	if inCg*p.chanLen() > math.MaxInt32 {
		panic("tensor: NewConvPlan input too large for 32-bit offsets")
	}
	off := make([]int32, 0, inCg*s.K*s.K)
	for ic := 0; ic < inCg; ic++ {
		for ky := 0; ky < s.K; ky++ {
			for kx := 0; kx < s.K; kx++ {
				sub := (ic*p.res+ky%s.Stride)*p.res + kx%s.Stride
				off = append(off, int32((sub*p.subH+ky/s.Stride)*p.subW+kx/s.Stride))
			}
		}
	}
	p.offsets = newOffsets(off)
	return p
}

// chanLen is the number of values the kernel addresses per input channel.
func (p *ConvPlan) chanLen() int { return p.res * p.res * p.subH * p.subW }

// StagedLen returns the buffer length Stage needs, 0 for a shape that is
// read in place.
func (p *ConvPlan) StagedLen() int {
	if p.InPlace() {
		return 0
	}
	return p.InC * p.chanLen()
}

// Stage copies one image src [InC, H, W] into dst in the layout the kernel
// addresses: zero border baked in, rows and columns split by residue
// modulo the stride. Every element of dst[:StagedLen()] is written once, so
// dst may arrive with arbitrary contents. A sub-plane is laid out like one
// row of the im2col lowering, so lowerPlanes fills both: one call per
// residue, walking every channel's sub-plane of that residue.
func (p *ConvPlan) Stage(dst, src []float32) {
	if len(dst) < p.StagedLen() || len(src) < p.InC*p.H*p.W {
		panic("tensor: ConvPlan.Stage slice too short")
	}
	sub := p.subH * p.subW
	for py := 0; py < p.res; py++ {
		for px := 0; px < p.res; px++ {
			l := newLowering(p.subH, p.subW, py-p.Pad, px-p.Pad, p.Stride, p.H, p.W)
			lowerPlanes(dst[(py*p.res+px)*sub:], p.res*p.res*sub, src, p.H*p.W, p.InC, l)
		}
	}
}

// Run computes one image's convolution y [OutC, OutH, OutW] = w ⊛ x, where
// w is the [OutC, InC/Groups·K·K] row-major weight matrix and x is the
// image itself for an in-place shape and the Stage'd copy otherwise. Every
// element of y is written (not accumulated) by exactly one tile, with an
// accumulation order fixed by the kernel, so results are bit-identical
// for every worker count.
//
// Memory safety: convSpan checks every operand extent a kernel call can
// touch against the slice it is handed, and the span kernels move partial
// vectors under a mask, so no load or store falls outside the slices
// handed in.
func (p *ConvPlan) Run(y, x, w []float32) {
	rows, cols := len(p.off), p.spans*p.spanPix
	// In place a channel's one sub-plane is its H×W plane, so chanLen sizes x
	// either way.
	if len(x) < p.InC*p.chanLen() || len(y) < p.OutC*cols || len(w) < p.OutC*rows {
		panic("tensor: ConvPlan.Run slice too short")
	}
	units, grain := p.units(), max(1, convSpanGrainFlops/(2*cols*rows*convTile))
	// Once per image and residue, so no closure unless the loop forks.
	if ranges, _ := parallel.Split(units, grain); ranges == 1 {
		p.runUnits(y, x, w, 0, units)
		return
	}
	parallel.ForGrain(units, grain, func(lo, hi int) { p.runUnits(y, x, w, lo, hi) })
}

// units returns the number of units Run schedules per image, each one
// convSpan call: a tile of convTile output channels of one group over the
// whole output plane.
func (p *ConvPlan) units() int {
	outCg := p.OutC / p.Groups
	return p.Groups * ((outCg + convTile - 1) / convTile)
}

// runUnits computes the (group, output-channel tile) units [lo, hi) of
// Run.
func (p *ConvPlan) runUnits(y, x, w []float32, lo, hi int) {
	inCg, outCg := p.InC/p.Groups, p.OutC/p.Groups
	rows, cols, xg := len(p.off), p.spans*p.spanPix, inCg*p.chanLen()
	tiles := (outCg + convTile - 1) / convTile
	g, oc := lo/tiles, lo%tiles*convTile
	for u := lo; u < hi; u++ {
		c := g*outCg + oc
		convSpan(y[c*cols:], cols, x[g*xg:], w[c*rows:], rows, p.offsets, min(convTile, outCg-oc), p.spanPix, p.spans, p.subW)
		if oc += convTile; oc >= outCg {
			g, oc = g+1, 0
		}
	}
}

// convSpanGeneric is the portable span kernel and the reference the
// assembly kernels must match bit for bit: for each of noc output channels
// j, nspan spans k and npix pixels p,
//
//	y[j*yStride+k*npix+p] = Σ_r w[j*wStride+r]·x[k*xStep+off[r]+p]
//
// in ascending r from +0, one fma32 per step — the product and the sum
// rounded once together, as the vector routines' fused multiply-add and
// axpyGeneric round them, so the im2col oracle stays bit-equal on every
// architecture whether or not the compiler fuses float arithmetic. A
// plan's consecutive spans are consecutive output rows (or the whole
// plane), so their outputs lie back to back.
func convSpanGeneric(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
	for k := 0; k < nspan; k++ {
		xk := x[k*xStep:]
		for j := 0; j < noc; j++ {
			wj := w[j*wStride:][:len(off)]
			yj := y[j*yStride+k*npix:][:npix]
			p := 0
			for ; p+4 <= npix; p += 4 {
				var a0, a1, a2, a3 float32
				for r, o := range off {
					wv, xs := wj[r], xk[int(o)+p:][:4]
					// fma32 four times, its common case written out (see
					// axpyGeneric).
					w64 := float64(wv)
					s0, s1 := w64*float64(xs[0])+float64(a0), w64*float64(xs[1])+float64(a1)
					s2, s3 := w64*float64(xs[2])+float64(a2), w64*float64(xs[3])+float64(a3)
					if tie32(s0) || tie32(s1) || tie32(s2) || tie32(s3) {
						a0, a1, a2, a3 = fma32(wv, xs[0], a0), fma32(wv, xs[1], a1), fma32(wv, xs[2], a2), fma32(wv, xs[3], a3)
						continue
					}
					a0, a1, a2, a3 = float32(s0), float32(s1), float32(s2), float32(s3)
				}
				yj[p], yj[p+1], yj[p+2], yj[p+3] = a0, a1, a2, a3
			}
			if p < npix {
				clear(yj[p:])
				for r, o := range off {
					axpyGeneric(wj[r], xk[int(o)+p:][:npix-p], yj[p:])
				}
			}
		}
	}
}
