package nn

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

// bwGroups is the fixed upper bound on weight-gradient partials in
// Conv2d.Backward. It is a reduction-shape constant, not a parallelism
// setting: deriving it from the worker count would make gradient sums
// depend on the machine.
const bwGroups = 16

// bwStripRows is the lowering strip height of the backward pass: instead
// of materializing the full [C*K*K, Hout*Wout] im2col matrix (and a
// second one for the input-gradient columns), Backward streams this many
// rows at a time through an L2-resident buffer. The strip kernels are the
// same matmul/col2im kernels applied to row slices, so results are
// bit-identical to the full materialization for every strip size.
const bwStripRows = 32

// Conv2d is a 2-D convolution over NCHW tensors with square kernels,
// symmetric padding, and optional grouping (grouped convolution is what
// gives ResNeXt its cardinality and MobileNetV2 its depthwise stage).
// Bias is omitted: every convolution in the paper's models feeds a
// BatchNorm, which subsumes it.
//
// Every forward convolution runs the direct NCHW kernel
// (tensor/conv_direct.go): the weights are read from Weight.Data where they
// lie and the output is written straight into the result; whether the
// input is read in place (Pad == 0 && Stride == 1) or staged once per image
// with its zero border — and, when strided, split by residue — is a
// function of pad and stride. im2col + matmul computes the same bits and
// survives as the parity tests' oracle (tensor.SetPacked).
//
// Backward runs the input gradient of stride-1 ungrouped shapes through
// that same kernel (see Backward). The layer holds nothing derived from
// Weight, so Weight.Data may be written at any time between calls; what it
// does keep is the kernel's addressing for the last input shape, which
// depends on the geometry alone.
//
// A call's transient buffers — the staged image, the rotated dX kernel, the
// dW partials, the lowering strips — come from Arena like its output: one
// per range of the loop that uses them (parallel.Split), drawn before the
// loop forks and freed after it joins, because an arena serves one
// goroutine. They arrive with unspecified contents.
type Conv2d struct {
	Scope
	name           string
	InC, OutC      int
	K, Stride, Pad int
	Groups         int
	Weight         *Param // [OutC, InC/Groups * K * K] row-major

	// noInputGrad marks a layer at the graph input whose dX nobody
	// consumes (set by FreezeExceptBN, cleared by Unfreeze).
	noInputGrad bool

	input    *tensor.Tensor
	lastSpec Spec
	// fw and dx are the plans of the forward and of the input-gradient
	// convolution for the last input shape (planFor), nil until first
	// needed. A plan is read-only once built, so one serves every image and
	// every worker.
	fw, dx *tensor.ConvPlan
}

// NewConv2d constructs a convolution layer with He-normal initialization.
func NewConv2d(name string, rng *rand.Rand, inC, outC, k, stride, pad, groups int) *Conv2d {
	if k < 1 || stride < 1 || pad < 0 || groups < 1 {
		panic(fmt.Sprintf("nn: %s: kernel %d, stride %d, pad %d, groups %d: want k ≥ 1, stride ≥ 1, pad ≥ 0, groups ≥ 1", name, k, stride, pad, groups))
	}
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: %s: channels (%d→%d) not divisible by groups %d", name, inC, outC, groups))
	}
	c := &Conv2d{
		name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad, Groups: groups,
		Weight: newParam(name+".weight", outC*(inC/groups)*k*k),
	}
	kaimingConv(rng, c.Weight.Data, outC*k*k/groups)
	return c
}

// Name implements Layer.
func (c *Conv2d) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2d) Params() []*Param { return []*Param{c.Weight} }

// Spec implements Layer.
func (c *Conv2d) Spec() Spec { return c.lastSpec }

// ConvShape returns the geometry of the last Forward — what decides whether
// the kernel reads the input in place or staged (tensor.ConvShape.InPlace) —
// and the zero shape before the first.
func (c *Conv2d) ConvShape() tensor.ConvShape {
	if c.fw == nil {
		return tensor.ConvShape{}
	}
	return c.fw.ConvShape
}

// planFor returns *p when it was built for s and replaces it otherwise.
func planFor(p **tensor.ConvPlan, s tensor.ConvShape) *tensor.ConvPlan {
	if *p == nil || (*p).ConvShape != s {
		*p = tensor.NewConvPlan(s)
	}
	return *p
}

// rangeBuf returns row i of t [rows, size] — the share of a loop's range i
// when t was drawn with a row per range — and nil when the loop drew none.
func rangeBuf(t *tensor.Tensor, i int) []float32 {
	if t == nil {
		return nil
	}
	size := t.Dim(1)
	return t.Data[i*size : (i+1)*size]
}

// Forward implements Layer. The batch dimension is processed in parallel.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(shapeErr(c.name, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if h+2*c.Pad < c.K || w+2*c.Pad < c.K {
		panic(fmt.Sprintf("nn: %s: %d×%d input padded by %d is smaller than the %d×%d kernel", c.name, h, w, c.Pad, c.K, c.K))
	}
	t0 := profStart()
	c.input = x
	plan := planFor(&c.fw, tensor.ConvShape{InC: c.InC, OutC: c.OutC, H: h, W: w, K: c.K, Stride: c.Stride, Pad: c.Pad, Groups: c.Groups})
	y := c.Arena.New(n, c.OutC, plan.OutH(), plan.OutW())
	c.conv(y.Data, x.Data, c.Weight.Data, n, plan, false)

	c.lastSpec = Spec{
		Kind: KindConv, LayerName: c.name,
		MACs:       int64(y.Numel()) * int64(len(c.Weight.Data)/c.OutC), // one reduction row per weight of an output channel
		ParamCount: int64(len(c.Weight.Data)),
		OutElems:   int64(y.Numel()),
		SavedElems: int64(x.Numel()),
		Batch:      int64(n),
	}
	profEnd(KindConv, c.name, false, t0)
	return y
}

// convIm2Col is the oracle, src [n,InC,H,W] → dst [n,OutC,·,·] under
// the weight matrix wmat [OutC, InC/Groups*K*K]: each image is lowered
// with im2col and multiplied against the weight matrix one group at a
// time. Grain 1: each image is heavy (an im2col plus a matmul per group),
// so even a micro-batch of 2 should use 2 workers. The inner matmul calls
// degrade to inline execution while the pool is busy with this loop.
func (c *Conv2d) convIm2Col(dst, src, wmat []float32, n int, s tensor.ConvShape) {
	inCg, outCg := s.InC/s.Groups, s.OutC/s.Groups
	rows, cols := inCg*s.K*s.K, s.OutH()*s.OutW()
	inLen, outLen := s.InC*s.H*s.W, s.OutC*cols
	ranges, span := parallel.Split(n, 1)
	lowered := c.Arena.New(ranges, rows*cols)
	parallel.ForGrain(n, 1, func(lo, hi int) {
		buf := rangeBuf(lowered, lo/span)
		for img := lo; img < hi; img++ {
			xImg, yImg := src[img*inLen:(img+1)*inLen], dst[img*outLen:(img+1)*outLen]
			for g := 0; g < s.Groups; g++ {
				tensor.Im2Col(buf, xImg[g*inCg*s.H*s.W:(g+1)*inCg*s.H*s.W], inCg, s.H, s.W, s.K, s.Stride, s.Pad)
				wg := wmat[g*outCg*rows : (g+1)*outCg*rows]
				tensor.MatMulInto(yImg[g*outCg*cols:(g+1)*outCg*cols], wg, buf, outCg, rows, cols, false)
			}
		}
	})
	c.Arena.Free(lowered)
}

// conv runs n images src → dst through the direct kernel under plan and the
// weight matrix wmat (or through the oracle when a test has selected it):
// stage the image if the shape needs it, then convolve it where it lies,
// straight into dst. When the profiler is active, staging time is credited
// to KindPack in the calling direction (contained within the layer's
// KindConv interval), so the copy stays attributable next to compute.
func (c *Conv2d) conv(dst, src, wmat []float32, n int, plan *tensor.ConvPlan, backward bool) {
	if !tensor.PackedEnabled() {
		c.convIm2Col(dst, src, wmat, n, plan.ConvShape)
		return
	}
	ranges, span := parallel.Split(n, 1)
	var staged *tensor.Tensor // stays nil for a shape read in place
	if size := plan.StagedLen(); size > 0 {
		staged = c.Arena.New(ranges, size)
	}
	prof := profActive() && staged != nil
	var stageNanos atomic.Int64
	inLen, outLen := plan.InC*plan.H*plan.W, plan.OutC*plan.OutH()*plan.OutW()
	parallel.ForGrain(n, 1, func(lo, hi int) {
		buf := rangeBuf(staged, lo/span)
		for img := lo; img < hi; img++ {
			xImg := src[img*inLen : (img+1)*inLen]
			if buf != nil {
				var t0 time.Time
				if prof {
					t0 = time.Now()
				}
				plan.Stage(buf, xImg)
				if prof {
					stageNanos.Add(int64(time.Since(t0)))
				}
				xImg = buf
			}
			plan.Run(dst[img*outLen:(img+1)*outLen], xImg, wmat)
		}
	})
	c.Arena.Free(staged)
	if prof {
		profAdd(KindPack, backward, time.Duration(stageNanos.Load()).Seconds())
	}
}

// Backward implements Layer. What it computes depends on who consumes it:
//
//   - dW is accumulated into Weight.Grad unless the weight is frozen, in
//     which case nothing of it is computed (BN-Opt: only γ/β learn).
//   - dX is returned unless the layer sits at the graph input with nobody
//     to consume it (noInputGrad), in which case Backward returns nil.
//   - For stride-1 ungrouped shapes with Pad < K, dX is a forward
//     convolution of dY with the kernel rotated afresh out of Weight.Data
//     (tensor.RotateConvWeights) at pad K-1-Pad, run through Forward's own
//     kernel (or im2col + matmul when a test has the oracle selected,
//     tensor.SetPacked — bit-identical to each other by the argument in
//     tensor/conv_direct.go).
//     It calls the kernels, never Forward, so the profiler sees one
//     conv.bw span and no forward time. Every other shape gets dX from
//     the strip path below, which is also the only dW implementation.
func (c *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.input
	if x == nil {
		panic("nn: " + c.name + ": Backward before Forward")
	}
	// dx is drawn with unspecified contents and sized by the forward: a
	// shorter batch would leave its tail unwritten, another plane would be
	// sliced as if it were the forward's.
	if grad.NDim() != 4 || grad.Dim(0) != x.Dim(0) || grad.Dim(1) != c.OutC || grad.Dim(2) != c.fw.OutH() || grad.Dim(3) != c.fw.OutW() {
		panic(shapeErr(c.name, grad.Shape()))
	}
	t0 := profStart()
	wantDW := !c.Weight.Frozen
	var dx, stripDX *tensor.Tensor
	if !c.noInputGrad {
		dx = c.Arena.New(x.Shape()...)
		if c.Groups == 1 && c.Stride == 1 && c.Pad < c.K {
			c.inputGradConv(grad, dx)
		} else {
			clear(dx.Data) // the strips scatter-add into it
			stripDX = dx
		}
	}
	if wantDW || stripDX != nil {
		c.backwardStrips(grad, stripDX, wantDW)
	}
	profEnd(KindConv, c.name, true, t0)
	return dx
}

// inputGradConv writes dX = conv(dY, rotated kernel) into dx. The kernel is
// rotated out of Weight.Data on every call — one move per weight against
// N·H·W MACs per weight in the convolution it feeds — so no copy of the
// weights outlives a call.
func (c *Conv2d) inputGradConv(grad, dx *tensor.Tensor) {
	plan := planFor(&c.dx, tensor.ConvShape{InC: c.OutC, OutC: c.InC, H: c.fw.OutH(), W: c.fw.OutW(), K: c.K, Stride: 1, Pad: c.K - 1 - c.Pad, Groups: 1})
	rot := c.Arena.New(len(c.Weight.Data))
	tensor.RotateConvWeights(rot.Data, c.Weight.Data, c.OutC, c.InC, c.K)
	c.conv(dx.Data, grad.Data, rot.Data, grad.Dim(0), plan, true)
	c.Arena.Free(rot)
}

// backwardStrips is the lowering-based backward: it accumulates dW into
// Weight.Grad when wantDW, and dX into dx (cleared by the caller: Col2ImRows
// adds) when dx is non-nil. The lowering is recomputed rather than cached,
// trading FLOPs for the memory the paper shows is the binding constraint on edge
// devices — and it is recomputed in strips of bwStripRows rows, so the
// transient footprint per worker is four small strip buffers instead of
// two full column matrices. Strip results are bit-identical to the full
// materialization: each strip is the same lowering rows fed to the same
// matmul kernels, and the column-to-image scatter runs in ascending row
// order across strips.
func (c *Conv2d) backwardStrips(grad, dx *tensor.Tensor, wantDW bool) {
	n := grad.Dim(0)
	// The loop runs over units of per images. dX is per image, so without
	// dW a unit is one image. The weight gradient sums contributions from
	// every image, and float addition is not associative, so the reduction
	// must not depend on how the scheduler happens to interleave chunks:
	// with dW the units are a fixed number of image groups derived from the
	// batch size alone, each accumulates its partial in image order, and
	// the partials are merged in unit order afterwards — bit-identical
	// results for every worker count.
	units, per := n, 1
	var partials *tensor.Tensor
	if wantDW {
		groups := min(bwGroups, n)
		per = (n + groups - 1) / groups
		units = (n + per - 1) / per // drop groups the ceiling left empty
		partials = c.Arena.New(units, len(c.Weight.Data))
	}
	ranges, span := parallel.Split(units, 1)
	_, colLen, matLen := c.stripDims()
	strips := c.Arena.New(ranges, 2*(colLen+matLen))
	parallel.ForGrain(units, 1, func(lo, hi int) {
		buf := rangeBuf(strips, lo/span)
		for u := lo; u < hi; u++ {
			dw := rangeBuf(partials, u)
			clear(dw)
			c.stripImages(grad, dx, dw, buf, u*per, min((u+1)*per, n))
		}
	})
	c.Arena.Free(strips)
	if wantDW {
		for u := 0; u < units; u++ {
			for i, v := range rangeBuf(partials, u) {
				c.Weight.Grad[i] += v
			}
		}
		c.Arena.Free(partials)
	}
}

// stripDims returns the strip height of the backward's lowering and the
// lengths of one strip of the lowering and of the weight matrix.
func (c *Conv2d) stripDims() (strip, colLen, matLen int) {
	strip = min(bwStripRows, c.InC/c.Groups*c.K*c.K)
	return strip, strip * c.fw.OutH() * c.fw.OutW(), c.OutC / c.Groups * strip
}

// stripImages runs the strip-mined backward over images [lo, hi), with two
// strips of each kind in buf: dW contributions are added to the partial dw in
// image order when dw is non-nil, each image's dX is scattered into dx when
// dx is non-nil.
func (c *Conv2d) stripImages(grad, dx *tensor.Tensor, dw, buf []float32, lo, hi int) {
	x, h, w := c.input, c.fw.H, c.fw.W
	inCg, outCg := c.InC/c.Groups, c.OutC/c.Groups
	rows, cols := inCg*c.K*c.K, c.fw.OutH()*c.fw.OutW()
	strip, colLen, matLen := c.stripDims()
	colBuf, dcolBuf := buf[:colLen], buf[colLen:2*colLen]
	dwStrip, wStrip := buf[2*colLen:][:matLen], buf[2*colLen+matLen:][:matLen]
	for img := lo; img < hi; img++ {
		gImg := grad.Data[img*c.OutC*cols : (img+1)*c.OutC*cols]
		for g := 0; g < c.Groups; g++ {
			gSlice := gImg[g*outCg*cols : (g+1)*outCg*cols]
			plane := (img*c.Groups + g) * inCg * h * w // this group's slice of x and dx
			wg := c.Weight.Data[g*outCg*rows : (g+1)*outCg*rows]
			for r0 := 0; r0 < rows; r0 += strip {
				r1 := min(r0+strip, rows)
				sr := r1 - r0
				if dw != nil {
					// dW_g strip: each element is the same dY·colᵀ dot
					// product as the full matmul, added once to the
					// running partial.
					tensor.Im2ColRows(colBuf, x.Data[plane:plane+inCg*h*w], inCg, h, w, c.K, c.Stride, c.Pad, r0, r1)
					tensor.MatMulTransBInto(dwStrip, gSlice, colBuf, outCg, cols, sr, false)
					dwg := dw[g*outCg*rows : (g+1)*outCg*rows]
					for oc := 0; oc < outCg; oc++ {
						dst := dwg[oc*rows+r0 : oc*rows+r1]
						for j, v := range dwStrip[oc*sr : (oc+1)*sr] {
							dst[j] += v
						}
					}
				}
				if dx != nil {
					// dCols strip = W_gᵀ·dY_g over a column slice of W
					// (copied contiguous so the kernel sees the same
					// layout), scattered back in ascending row order.
					for oc := 0; oc < outCg; oc++ {
						copy(wStrip[oc*sr:(oc+1)*sr], wg[oc*rows+r0:oc*rows+r1])
					}
					tensor.MatMulTransAInto(dcolBuf, wStrip, gSlice, outCg, sr, cols, false)
					tensor.Col2ImRows(dx.Data[plane:plane+inCg*h*w], dcolBuf, inCg, h, w, c.K, c.Stride, c.Pad, r0, r1)
				}
			}
		}
	}
}
