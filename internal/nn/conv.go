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

// Conv2d is a 2-D convolution over NCHW tensors with square kernels,
// symmetric padding, and optional grouping (grouped convolution is what
// gives ResNeXt its cardinality and MobileNetV2 its depthwise stage).
// Bias is omitted: every convolution in the paper's models feeds a
// BatchNorm, which subsumes it.
//
// Every forward runs the direct NCHW kernel (tensor.ConvPlan), reading the
// weights from Weight.Data where they lie and writing straight into the
// result; whether it reads the input in place or staged is a function of
// pad and stride. Backward runs every input gradient through the same
// kernel, as residue sub-convolutions of dY (tensor.ConvGradPlan), and the
// weight gradient one lowered input row at a time. im2col + matmul computes
// the forward's bits and survives as the parity tests' oracle
// (tensor.SetPacked). The layer keeps nothing derived from Weight — only
// the plans for the last input shape, which depend on the geometry alone —
// so Weight.Data may be written at any time between calls.
//
// A call's transient buffers come from Arena like its output: one per range
// of the loop that uses them (parallel.Split), drawn before the loop forks
// and freed after it joins, because an arena serves one goroutine. They
// arrive with unspecified contents.
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
	// fw and dx are the plans of the forward and of its gradient for the
	// last input shape, nil until first needed. A plan is read-only once
	// built, so one serves every image and every worker.
	fw *tensor.ConvPlan
	dx *tensor.ConvGradPlan
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
	if s := (tensor.ConvShape{InC: c.InC, OutC: c.OutC, H: h, W: w, K: c.K, Stride: c.Stride, Pad: c.Pad, Groups: c.Groups}); c.fw == nil || c.fw.ConvShape != s {
		c.fw = tensor.NewConvPlan(s)
	}
	y := c.Arena.New(n, c.OutC, c.fw.OutH(), c.fw.OutW())
	var k kernel = c.fw
	if !tensor.PackedEnabled() {
		k = im2col{c.fw.ConvShape}
	}
	c.conv(y.Data, x.Data, c.Weight.Data, n, k, false)

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

// kernel is a plan conv runs image by image: a forward ConvPlan, the
// forward's im2col oracle, or an input gradient's ConvGradPlan, whose
// residue outputs conv interleaves.
type kernel interface {
	StagedLen() int
	Stage(dst, src []float32)
	Run(y, x, w []float32)
}

// im2col is the forward's oracle (tensor.SetPacked(false)) as a kernel: an
// image is staged as its im2col lowering and run as one matmul per group.
type im2col struct{ tensor.ConvShape }

func (k im2col) StagedLen() int { return k.InC * k.K * k.K * k.OutH() * k.OutW() }

func (k im2col) Stage(dst, src []float32) {
	inCg, lowered := k.InC/k.Groups, k.StagedLen()/k.Groups
	for g := 0; g < k.Groups; g++ {
		tensor.Im2Col(dst[g*lowered:], src[g*inCg*k.H*k.W:], inCg, k.H, k.W, k.K, k.Stride, k.Pad)
	}
}

func (k im2col) Run(y, x, w []float32) {
	outCg, rows, cols := k.OutC/k.Groups, k.InC/k.Groups*k.K*k.K, k.OutH()*k.OutW()
	for g := 0; g < k.Groups; g++ {
		tensor.MatMulInto(y[g*outCg*cols:], w[g*outCg*rows:], x[g*rows*cols:], outCg, rows, cols, false)
	}
}

// conv runs n images src → dst through k under the weight matrix w: stage
// an image if k reads a copy, convolve it, and interleave a gradient's
// residue outputs into dst unless k writes dst itself. The copies are
// credited to KindPack in the calling direction, within the layer's
// KindConv interval.
func (c *Conv2d) conv(dst, src, w []float32, n int, k kernel, backward bool) {
	ranges, span := parallel.Split(n, 1)
	var staged, split *tensor.Tensor // nil for an image read in place, for an output written in place
	if size := k.StagedLen(); size > 0 {
		staged = c.Arena.New(ranges, size)
	}
	grad, _ := k.(*tensor.ConvGradPlan)
	if grad != nil && grad.SplitLen() > 0 {
		split = c.Arena.New(ranges, grad.SplitLen())
	}
	prof := profActive() && (staged != nil || split != nil)
	var copyNanos atomic.Int64
	inLen, outLen := len(src)/max(n, 1), len(dst)/max(n, 1)
	parallel.ForGrain(n, 1, func(lo, hi int) {
		sbuf, obuf := rangeBuf(staged, lo/span), rangeBuf(split, lo/span)
		for img := lo; img < hi; img++ {
			x, y := src[img*inLen:(img+1)*inLen], dst[img*outLen:(img+1)*outLen]
			if sbuf != nil {
				timed(prof, &copyNanos, func() { k.Stage(sbuf, x) })
				x = sbuf
			}
			if obuf == nil {
				k.Run(y, x, w)
				continue
			}
			k.Run(obuf, x, w)
			timed(prof, &copyNanos, func() { grad.Unstage(y, obuf) })
		}
	})
	c.Arena.Free(split)
	c.Arena.Free(staged)
	if prof {
		profAdd(KindPack, backward, time.Duration(copyNanos.Load()).Seconds())
	}
}

// Backward implements Layer. What it computes depends on who consumes it:
//
//   - dX is returned unless the layer sits at the graph input with nobody
//     to consume it (noInputGrad), in which case Backward returns nil. Its
//     taps are gathered out of Weight.Data on every call, one move per
//     weight against N·H·W MACs per weight.
//   - dW is accumulated into Weight.Grad unless the weight is frozen, in
//     which case nothing of it is computed (BN-Opt: only γ/β learn).
//
// It calls the kernels, never Forward, so the profiler sees one conv.bw
// span and no forward time.
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
	if c.dx == nil || c.dx.ConvShape != c.fw.ConvShape {
		c.dx = tensor.NewConvGradPlan(c.fw.ConvShape)
	}
	var dx *tensor.Tensor
	if !c.noInputGrad {
		dx = c.Arena.New(x.Shape()...)
		taps := c.Arena.New(len(c.Weight.Data))
		c.dx.Weights(taps.Data, c.Weight.Data)
		c.conv(dx.Data, grad.Data, taps.Data, x.Dim(0), c.dx, true)
		c.Arena.Free(taps)
	}
	if !c.Weight.Frozen {
		c.weightGrad(grad.Data, x.Dim(0))
	}
	profEnd(KindConv, c.name, true, t0)
	return dx
}

// weightGrad adds the weight gradient of n images to Weight.Grad. Float
// addition is not associative, so the sum over images runs in a fixed number
// of image groups derived from the batch size alone, each accumulating its
// partial in image order, merged in group order afterwards: bit-identical
// for every worker count.
func (c *Conv2d) weightGrad(dy []float32, n int) {
	p := c.dx
	groups := min(bwGroups, n)
	per := (n + groups - 1) / groups
	units := (n + per - 1) / per // drop groups the ceiling left empty
	partials := c.Arena.New(units, len(c.Weight.Data))
	ranges, span := parallel.Split(units, 1)
	rows := c.Arena.New(ranges, p.OutH()*p.OutW())
	inLen, outLen := p.InC*p.H*p.W, p.OutC*p.OutH()*p.OutW()
	x := c.input.Data
	parallel.ForGrain(units, 1, func(lo, hi int) {
		row := rangeBuf(rows, lo/span)
		for u := lo; u < hi; u++ {
			dw := rangeBuf(partials, u)
			clear(dw)
			for img := u * per; img < min((u+1)*per, n); img++ {
				p.AddWeightGrad(dw, x[img*inLen:(img+1)*inLen], dy[img*outLen:(img+1)*outLen], row)
			}
		}
	})
	c.Arena.Free(rows)
	for u := 0; u < units; u++ {
		for i, v := range rangeBuf(partials, u) {
			c.Weight.Grad[i] += v
		}
	}
	c.Arena.Free(partials)
}
