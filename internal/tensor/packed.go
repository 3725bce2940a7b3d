package tensor

import "sync/atomic"

// This file implements the NC8HW8 channel-blocked ("packed") layout the
// direct convolution kernels run on. Channels are grouped into blocks of
// packLanes; within a block the 8 channel values of one pixel sit in 8
// consecutive floats, so an 8-wide SIMD register holds one pixel across
// one channel block. Padding is baked into the packed image (a zero
// border), which removes every bounds check from the conv microkernel:
// padded positions contribute w*0 products exactly like the zero entries
// an im2col lowering would have produced, so the direct kernel remains
// bit-identical to the im2col-plus-matmul path it replaces (see
// conv_direct.go for the full argument).

// packLanes is the channel-block width of the packed layout: one SIMD
// register of float32s.
const packLanes = 8

// PackLanes returns the channel-block width of the packed layout.
func PackLanes() int { return packLanes }

// packedDisabled sends every convolution to the im2col path. Nothing in
// the program sets it: the kernel a layer runs is a function of the layer's
// shape alone (nn.Conv2d.PackedEligible).
var packedDisabled atomic.Bool

// SetPacked is the oracle hook: SetPacked(false) makes every convolution
// take the im2col+matmul path, which the direct kernel must match bit for
// bit. Its callers are the parity tests and bench/micro.go (which times the
// im2col lowering at a packed-eligible shape); no binary, flag or
// environment variable reaches it, and a test pins that
// (TestProcessSwitchesArePinned).
func SetPacked(on bool) { packedDisabled.Store(!on) }

// PackedEnabled reports whether SetPacked(false) is in effect; the conv
// dispatch reads it next to the layer's shape.
func PackedEnabled() bool { return !packedDisabled.Load() }

// packedBlocks returns the number of channel blocks covering c channels.
func packedBlocks(c int) int { return (c + packLanes - 1) / packLanes }

// PackedImageLen returns the buffer length PackImage needs for a [C,H,W]
// image with the given symmetric padding baked in.
func PackedImageLen(c, h, w, pad int) int {
	return packedBlocks(c) * (h + 2*pad) * (w + 2*pad) * packLanes
}

// PackImage packs one NCHW image [C,H,W] (a raw slice) into the padded
// NC8HW8 layout: dst[((cb*(H+2p)+y)*(W+2p)+x)*8+l] holds channel cb*8+l
// of input pixel (y-p, x-p). The zero border and any tail lanes past C
// are cleared, so dst may come from the scratch pool with arbitrary
// contents.
func PackImage(dst, src []float32, c, h, w, pad int) {
	cb := packedBlocks(c)
	hp, wp := h+2*pad, w+2*pad
	n := cb * hp * wp * packLanes
	if len(dst) < n || len(src) < c*h*w {
		panic("tensor: PackImage slice too short")
	}
	clear(dst[:n])
	for b := 0; b < cb; b++ {
		lanes := c - b*packLanes
		if lanes > packLanes {
			lanes = packLanes
		}
		for y := 0; y < h; y++ {
			out := dst[((b*hp+y+pad)*wp+pad)*packLanes:][: w*packLanes : w*packLanes]
			for l := 0; l < lanes; l++ {
				row := src[(b*packLanes+l)*h*w+y*w:][:w:w]
				o := l
				for _, v := range row {
					out[o] = v
					o += packLanes
				}
			}
		}
	}
}

// UnpackImage scatters a packed [CB][H][W][8] buffer (no padding) back
// into an NCHW [C,H,W] slice, dropping tail lanes.
func UnpackImage(dst, src []float32, c, h, w int) {
	cb := packedBlocks(c)
	if len(src) < cb*h*w*packLanes || len(dst) < c*h*w {
		panic("tensor: UnpackImage slice too short")
	}
	for b := 0; b < cb; b++ {
		lanes := c - b*packLanes
		if lanes > packLanes {
			lanes = packLanes
		}
		for y := 0; y < h; y++ {
			in := src[(b*h+y)*w*packLanes:][: w*packLanes : w*packLanes]
			for l := 0; l < lanes; l++ {
				row := dst[(b*packLanes+l)*h*w+y*w:][:w:w]
				o := l
				for x := range row {
					row[x] = in[o]
					o += packLanes
				}
			}
		}
	}
}

// PackedWeights is a convolution weight tensor reordered for the direct
// kernel: for each output-channel block and each reduction row
// (input channel, ky, kx — tail input lanes zero-filled), 8 consecutive
// floats hold the weight across the block's 8 output channels. The
// buffer is immutable once built; Version records the source Param
// version it was packed from so callers can cache and share it (clones
// of an unadapted model share one copy).
type PackedWeights struct {
	Data      []float32
	OutC, InC int
	K         int
	Version   uint64
}

// Rows returns the reduction-row count of the packed kernel, including
// zero-padded tail input lanes.
func (p *PackedWeights) Rows() int {
	return packedBlocks(p.InC) * packLanes * p.K * p.K
}

// PackConvWeights packs a [outC, inC*K*K] row-major weight matrix.
func PackConvWeights(w []float32, outC, inC, k int) *PackedWeights {
	if len(w) < outC*inC*k*k {
		panic("tensor: PackConvWeights slice too short")
	}
	icb, ocb := packedBlocks(inC), packedBlocks(outC)
	rows := icb * packLanes * k * k
	data := make([]float32, ocb*rows*packLanes)
	kk := k * k
	for ob := 0; ob < ocb; ob++ {
		for r := 0; r < rows; r++ {
			ic := r / kk
			if ic >= inC {
				continue // zero-padded tail input lane
			}
			rem := r % kk
			for l := 0; l < packLanes; l++ {
				oc := ob*packLanes + l
				if oc >= outC {
					continue // zero-padded tail output lane
				}
				data[(ob*rows+r)*packLanes+l] = w[(oc*inC+ic)*kk+rem]
			}
		}
	}
	return &PackedWeights{Data: data, OutC: outC, InC: inC, K: k}
}

// RotateConvWeights writes into dst the kernel whose stride-1 forward
// convolution over dY is the input gradient of the convolution w: each
// K×K tap rotated by 180° and the in/out channel axes transposed,
// dst[ic][oc*K*K + r] = w[oc][ic*K*K + (K*K-1-r)]. dst is [inC, outC*K*K]
// row-major, the layout PackConvWeights and the im2col matmul both take;
// convolving dY with it at pad K-1-pad yields dX (see Conv2d.Backward).
func RotateConvWeights(dst, w []float32, outC, inC, k int) {
	kk := k * k
	if len(dst) < inC*outC*kk || len(w) < outC*inC*kk {
		panic("tensor: RotateConvWeights slice too short")
	}
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < inC; ic++ {
			src := w[(oc*inC+ic)*kk:][:kk:kk]
			out := dst[(ic*outC+oc)*kk:][:kk:kk]
			for r, v := range src {
				out[kk-1-r] = v
			}
		}
	}
}

// PackConvWeightsRotated packs the input-gradient kernel of a [outC,
// inC*K*K] weight matrix (RotateConvWeights) for the direct kernel. The
// result convolves outC channels into inC.
func PackConvWeightsRotated(w []float32, outC, inC, k int) *PackedWeights {
	rot := GetScratch(inC * outC * k * k)
	defer PutScratch(rot)
	RotateConvWeights(rot, w, outC, inC, k)
	return PackConvWeights(rot, inC, outC, k)
}

// ConvOffsets builds the per-row input offset table for a packed input of
// padded geometry [ICB][hp][wp][8]: entry r is the element offset from an
// output pixel's origin to the input value that row r of the packed
// weights multiplies. The table depends only on (inC, hp, wp, k), so
// callers cache it per conv layer and input geometry.
func ConvOffsets(inC, hp, wp, k int) []int32 {
	icb := packedBlocks(inC)
	rows := icb * packLanes * k * k
	off := make([]int32, rows)
	kk := k * k
	for r := 0; r < rows; r++ {
		ic := r / kk
		rem := r % kk
		ky, kx := rem/k, rem%k
		b, l := ic/packLanes, ic%packLanes
		off[r] = int32(((b*hp+ky)*wp+kx)*packLanes + l)
	}
	return off
}
