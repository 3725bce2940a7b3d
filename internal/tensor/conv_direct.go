package tensor

import (
	"math"
	"sync/atomic"

	"edgetta/internal/parallel"
)

// Direct convolution on NCHW, in place: the SIMD lanes of the kernel are 8
// consecutive output pixels of one channel plane, a register tile is a few
// output channels × a few pixel vectors, and every reduction row
// r = (ic, ky, kx) is one unaligned vector load from the input plane at a
// precomputed offset plus one weight broadcast per output channel, read
// straight from the layer's [OutC, InC/Groups·K·K] weight matrix. No layout
// conversion, no im2col matrix, no derived copy of the weights; the output
// is written where the next layer reads it. A stride-1 unpadded convolution
// reads the input where it lies; every other shape is staged once per image
// (ConvPlan.Stage). A group restricts the reduction rows and the
// output-channel tile to that group's channels; depthwise is the
// one-channel case.
//
// # Bit-parity with the im2col path
//
// The im2col path computes, for each output element (oc, p), the sum over
// reduction rows r in ascending order of w[oc][r]*col[r][p], where
// col[r][p] is the input value under the window (or 0 in padding).
// MatMulInto's cache tiling never reorders a given element's accumulation
// (always ascending r), and its one quirk is skipping rows whose weight is
// exactly zero. The kernel here accumulates in the very same ascending-row
// order from a +0 accumulator, one rounded multiply and one rounded add per
// step, and does not skip zero weights. The two differ therefore only in
// adding w*0 (= ±0) products the matmul skips — in the staged zero border
// too — and adding ±0 to the accumulator is a bitwise no-op, because an
// accumulator that starts at +0 can never become -0 (x+(-x) = +0 and
// (+0)+(-0) = +0 in round-to-nearest). There are no padded lanes: a vector
// shorter than 8 pixels is loaded and stored under a mask. Hence for finite
// inputs the kernel is bit-identical to the im2col path, on every
// architecture and worker count, which keeps im2col as the oracle the
// parity tests compare against (SetPacked).

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
	res        int     // residues per axis that a tap can have: min(K, Stride)
	subH, subW int     // sub-plane geometry
	off        []int32 // reduction row → offset from a group's span origin
	maxOff     int
	// An output plane is spans runs of spanPix pixels: its rows, or the
	// whole plane when sub-plane and output rows are equally long (K ≤
	// Stride), which keeps the vectors full on small planes.
	spans, spanPix int
}

// convTile is the output-channel height of the kernel's register tile.
const convTile = 4

// convSpanGrainFlops is the target work per scheduled (tile, span) unit,
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
	p.off = make([]int32, 0, inCg*s.K*s.K)
	for ic := 0; ic < inCg; ic++ {
		for ky := 0; ky < s.K; ky++ {
			for kx := 0; kx < s.K; kx++ {
				sub := (ic*p.res+ky%s.Stride)*p.res + kx%s.Stride
				o := (sub*p.subH+ky/s.Stride)*p.subW + kx/s.Stride
				p.off = append(p.off, int32(o))
				p.maxOff = max(p.maxOff, o)
			}
		}
	}
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
// modulo the stride. Every element of dst[:StagedLen()] is written, so dst
// may arrive with arbitrary contents. A sub-plane is
// laid out like one row of the im2col lowering, so lowerRows fills both.
func (p *ConvPlan) Stage(dst, src []float32) {
	if len(dst) < p.StagedLen() || len(src) < p.InC*p.H*p.W {
		panic("tensor: ConvPlan.Stage slice too short")
	}
	sub := p.subH * p.subW
	for ic := 0; ic < p.InC; ic++ {
		plane := src[ic*p.H*p.W : (ic+1)*p.H*p.W]
		for py := 0; py < p.res; py++ {
			for px := 0; px < p.res; px++ {
				lowerRows(dst[:sub], p.subW, plane, py-p.Pad, px-p.Pad, p.Stride, p.H, p.W)
				dst = dst[sub:]
			}
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
// Memory safety: the lengths checked here bound every address the plan can
// form, each span call below slices its operands to exactly the extent
// that span touches (a slice expression is a bounds check), and the span
// kernels move partial vectors under a mask, so no load or store falls
// outside the slices handed in.
func (p *ConvPlan) Run(y, x, w []float32) {
	outCg := p.OutC / p.Groups
	rows, cols := len(p.off), p.spans*p.spanPix
	// In place a channel's one sub-plane is its H×W plane, so chanLen sizes x
	// either way.
	if len(x) < p.InC*p.chanLen() || len(y) < p.OutC*cols || len(w) < p.OutC*rows {
		panic("tensor: ConvPlan.Run slice too short")
	}
	tiles := (outCg + convTile - 1) / convTile
	units, grain := p.Groups*tiles*p.spans, max(1, convSpanGrainFlops/(2*p.spanPix*rows*convTile))
	// Once per image and residue, so no closure unless the loop forks.
	if ranges, _ := parallel.Split(units, grain); ranges == 1 {
		p.runUnits(y, x, w, 0, units)
		return
	}
	parallel.ForGrain(units, grain, func(lo, hi int) { p.runUnits(y, x, w, lo, hi) })
}

// runUnits computes the (output-channel tile, span) units [lo, hi) of Run.
func (p *ConvPlan) runUnits(y, x, w []float32, lo, hi int) {
	inCg, outCg := p.InC/p.Groups, p.OutC/p.Groups
	rows, cols := len(p.off), p.spans*p.spanPix
	tiles := (outCg + convTile - 1) / convTile
	for u := lo; u < hi; u++ {
		tile, span := u/p.spans, u%p.spans
		g, oc := tile/tiles, tile%tiles*convTile
		noc := min(convTile, outCg-oc)
		oc += g * outCg
		xb := g*inCg*p.chanLen() + span*p.subW
		yb := oc*cols + span*p.spanPix
		convSpan(y[yb:yb+(noc-1)*cols+p.spanPix], cols, x[xb:xb+p.maxOff+p.spanPix],
			w[oc*rows:(oc+noc)*rows], rows, p.off, noc, p.spanPix)
	}
}

// convSpanGeneric is the portable span kernel and the reference the
// assembly kernels must match bit for bit: for each of noc output channels
// j and npix pixels p, y[j*yStride+p] = Σ_r w[j*wStride+r]·x[off[r]+p] in
// ascending r from +0, one rounded multiply and one rounded add per step —
// the expression axpyGeneric uses, so that a compiler that fuses one fuses
// both and the im2col oracle stays bit-equal on every architecture.
func convSpanGeneric(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix int) {
	for j := 0; j < noc; j++ {
		wj := w[j*wStride:][:len(off)]
		yj := y[j*yStride:][:npix]
		p := 0
		for ; p+4 <= npix; p += 4 {
			var a0, a1, a2, a3 float32
			for r, o := range off {
				wv := wj[r]
				xs := x[int(o)+p:][:4]
				a0 += wv * xs[0]
				a1 += wv * xs[1]
				a2 += wv * xs[2]
				a3 += wv * xs[3]
			}
			yj[p], yj[p+1], yj[p+2], yj[p+3] = a0, a1, a2, a3
		}
		for ; p < npix; p++ {
			var a float32
			for r, o := range off {
				a += wj[r] * x[int(o)+p]
			}
			yj[p] = a
		}
	}
}
