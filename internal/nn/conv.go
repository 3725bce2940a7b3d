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

	// noInputGrad is set by FreezeExceptBN on the conv at the graph input,
	// whose dX nobody consumes, and cleared by Unfreeze.
	noInputGrad bool

	// input is the last forward's input, held for the weight gradient and
	// nil when the weight was frozen: dX needs the weights alone, and the
	// input's shape, which inShape records.
	input    *tensor.Tensor
	inShape  []int
	lastSpec Spec
	// fw and dx are the plans of the forward and of its gradient for the
	// last input shape, nil until first needed. A plan is read-only once
	// built, so one serves every image and every worker.
	fw *tensor.ConvPlan
	dx *tensor.ConvGradPlan
}

// NewConv2d constructs a convolution layer with He-normal initialization, or
// with zero weights when rng is nil — for a layer whose weights are about to
// be copied in (CopyState).
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
	return c.ForwardFused(x, nil, train)
}

// ForwardFused is Forward with a block's residual as an operand: y = w ⊛ x
// + res, each image's sum taken right after that image is convolved, while
// its output is still in cache, one rounding per element (res may be nil).
// The result is bit-identical to Forward followed by an add of its own.
func (c *Conv2d) ForwardFused(x, res *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != c.InC {
		panic(shapeErr(c.name, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if h+2*c.Pad < c.K || w+2*c.Pad < c.K {
		panic(fmt.Sprintf("nn: %s: %d×%d input padded by %d is smaller than the %d×%d kernel", c.name, h, w, c.Pad, c.K, c.K))
	}
	t0 := profStart()
	c.inShape = append(c.inShape[:0], x.Shape()...)
	c.input = nil
	if !c.Weight.Frozen {
		c.input = x
		c.hold(x)
	}
	if s := (tensor.ConvShape{InC: c.InC, OutC: c.OutC, H: h, W: w, K: c.K, Stride: c.Stride, Pad: c.Pad, Groups: c.Groups}); c.fw == nil || c.fw.ConvShape != s {
		c.fw = tensor.NewConvPlan(s)
	}
	y := c.Arena.New(n, c.OutC, c.fw.OutH(), c.fw.OutW())
	var k kernel = c.fw
	if !tensor.PackedEnabled() {
		k = im2col{c.fw.ConvShape}
	}
	c.conv(y.Data, x.Data, c.Weight.Data, c.residual(res, y.Shape()), 0, n, k, false)

	c.lastSpec = Spec{
		Kind: KindConv, LayerName: c.name,
		MACs:       int64(y.Numel()) * int64(len(c.Weight.Data)/c.OutC), // one reduction row per weight of an output channel
		ParamCount: int64(len(c.Weight.Data)),
		Conv:       c.fw.ConvShape,
		OutElems:   int64(y.Numel()),
		SavedElems: int64(x.Numel()),
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

// residual returns res's data after checking that it has shape, nil for a
// nil res.
func (c *Conv2d) residual(res *tensor.Tensor, shape []int) []float32 {
	if res == nil {
		return nil
	}
	if !sameShape(res, shape) {
		// A copy is formatted so that shape itself does not escape.
		panic(fmt.Sprintf("nn: %s: residual shape %v does not match %v", c.name, res.Shape(), append([]int(nil), shape...)))
	}
	return res.Data
}

// conv runs n images src → dst through k under the weight matrix w: stage
// an image if k reads a copy, convolve it, interleave a gradient's residue
// outputs into dst unless k writes dst itself, and add the image's share
// of res (when non-nil) to what it wrote — or, when it interleaves, to the
// residue output at resAt before that. The copies are credited to KindPack
// in the calling direction, within the layer's KindConv interval.
func (c *Conv2d) conv(dst, src, w, res []float32, resAt, n int, k kernel, backward bool) {
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
	inLen, outLen, resLen := len(src)/max(n, 1), len(dst)/max(n, 1), len(res)/max(n, 1)
	one := tensor.Planes{N: 1, Len: resLen} // an image's share of res; empty for none
	parallel.ForGrain(n, 1, func(lo, hi int) {
		sbuf, obuf := rangeBuf(staged, lo/span), rangeBuf(split, lo/span)
		for img := lo; img < hi; img++ {
			x, y := src[img*inLen:(img+1)*inLen], dst[img*outLen:(img+1)*outLen]
			if sbuf != nil {
				timed(prof, &copyNanos, func() { k.Stage(sbuf, x) })
				x = sbuf
			}
			r := res[img*resLen:][:resLen]
			if obuf == nil {
				k.Run(y, x, w)
				tensor.AddPlanes(y, r, one)
				continue
			}
			k.Run(obuf, x, w)
			tensor.AddPlanes(obuf[resAt:], r, one)
			timed(prof, &copyNanos, func() { grad.Unstage(y, obuf) })
		}
	})
	c.Arena.Free(split)
	c.Arena.Free(staged)
	if prof {
		profAdd(KindPack, c.name, backward, time.Duration(copyNanos.Load()))
	}
}

// Backward implements Layer. What it computes depends on who consumes it:
//
//   - dX is returned unless the layer sits at the graph input with nobody
//     to consume it (noInputGrad), in which case Backward returns nil. Its
//     taps are gathered out of Weight.Data on every call, one move per
//     weight against N·H·W MACs per weight.
//   - dW is accumulated into Weight.Grad unless the weight is frozen, in
//     which case nothing of it is computed (BN-Opt: only γ/β learn) and the
//     forward kept no input to compute it from.
//
// It calls the kernels, never Forward, so the profiler sees one conv.bw
// span and no forward time.
func (c *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, nil, false) }

// BackwardFused is Backward with a residual as an operand of dX. res (nil:
// none) is the gradient that reaches the same input by another path of the
// block. It is zero off the rows and columns ≡ 0 mod Stride and given on
// those alone, [N, InC, ⌈H/Stride⌉, ⌈W/Stride⌉]: at stride 1 the input's
// shape, at a larger one what a shortcut's BackwardSampled returns. Each
// image's share is added while the image is in cache, one rounding per
// element: at stride 1 to the dX just written, otherwise to the residue
// output that lies on that grid, before the un-staging. Off the grid dX is
// left as it is, which is dX + 0 to the bit, since a dX accumulator starts
// at +0 and so is never −0: the result is bit-identical to Backward
// followed by an add of its own. A strided conv with no residue on the
// grid (K ≤ Pad mod Stride) refuses a res. Without a dX (noInputGrad) it
// returns nil and res goes unread.
func (c *Conv2d) BackwardFused(grad, res *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, res, false)
}

// BackwardSampled is Backward for a 1×1 convolution without padding, whose
// dX is zero off the rows and columns ≡ 0 mod Stride: it returns dX on
// those alone, [N, InC, ⌈H/Stride⌉, ⌈W/Stride⌉] — its one residue output,
// never un-staged — for BackwardFused of a conv with the same stride.
func (c *Conv2d) BackwardSampled(grad *tensor.Tensor) *tensor.Tensor {
	if c.K != 1 || c.Pad != 0 {
		panic(fmt.Sprintf("nn: %s: BackwardSampled of a %d×%d conv padded by %d: only a 1×1 unpadded conv's dX lies on its stride grid", c.name, c.K, c.K, c.Pad))
	}
	return c.backward(grad, nil, true)
}

// sampledGrad is an input-gradient plan whose residue output conv keeps as
// it is: no SplitLen, so Run writes the image's share of dx itself.
type sampledGrad struct{ *tensor.ConvGradPlan }

func (c *Conv2d) backward(grad, res *tensor.Tensor, sampled bool) *tensor.Tensor {
	if c.fw == nil {
		panic("nn: " + c.name + ": Backward before Forward")
	}
	if c.input == nil && !c.Weight.Frozen {
		panic("nn: " + c.name + ": the weight was unfrozen after the Forward, which kept no input for its gradient")
	}
	// dx is drawn with unspecified contents and sized by the forward: a
	// shorter batch would leave its tail unwritten, another plane would be
	// sliced as if it were the forward's.
	n := c.inShape[0]
	if grad.NDim() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.OutC || grad.Dim(2) != c.fw.OutH() || grad.Dim(3) != c.fw.OutW() {
		panic(shapeErr(c.name, grad.Shape()))
	}
	t0 := profStart()
	if c.dx == nil || c.dx.ConvShape != c.fw.ConvShape {
		c.dx = tensor.NewConvGradPlan(c.fw.ConvShape)
	}
	var dx *tensor.Tensor
	if !c.noInputGrad {
		s := c.Stride
		grid := []int{n, c.InC, (c.inShape[2] + s - 1) / s, (c.inShape[3] + s - 1) / s}
		resAt, ok := c.dx.GridResidue()
		if res != nil && s > 1 && !ok {
			panic(fmt.Sprintf("nn: %s: no residue of its dX lies on the stride grid that a residual is given on", c.name))
		}
		var k kernel = c.dx
		shape := c.inShape
		if sampled {
			k, shape = sampledGrad{c.dx}, grid
		}
		dx = c.Arena.New(shape...)
		taps := c.Arena.New(len(c.Weight.Data))
		c.dx.Weights(taps.Data, c.Weight.Data)
		c.conv(dx.Data, grad.Data, taps.Data, c.residual(res, grid), resAt, n, k, true)
		c.Arena.Free(taps)
	}
	if !c.Weight.Frozen {
		c.weightGrad(grad.Data, n)
	}
	c.Arena.Unhold(c.input)
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
