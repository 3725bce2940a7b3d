package nn

import (
	"fmt"
	"math"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

// BatchNorm2d normalizes NCHW activations per channel. It is the layer the
// whole study revolves around: BN-Norm re-estimates Mean/Var from the test
// batch, and BN-Opt additionally optimizes Gamma/Beta by entropy descent.
//
// Statistics selection:
//   - train=false and UseBatchStats=false: running statistics (inference).
//   - train=true or UseBatchStats=true: statistics of the current batch,
//     with running stats updated by Momentum (PyTorch train() semantics,
//     which the paper's BN-Norm and BN-Opt both require).
//
// A rectifier, when the layer has one, is its epilogue: fixed at
// construction (tensor.Rect: none, ReLU, or ReLU6 with Cap 6), it runs in
// the same pass over the activation as the normalize, after the residual
// a block may add (ForwardFused). No model applies a rectifier anywhere
// else.
//
// Backward reads the layer input and nothing else the forward made: x̂,
// and the value z = γ·x̂ + β the rectifier gated, are recomputed from it
// in the forward's own rounding, with the γ and β that forward used. So
// the input is all the layer holds for Backward (Scope) — and the output,
// only after a forward that added a residual before the rectifier, whose
// gate depends on the residual. γ and β must therefore not change between
// a Forward and its Backward; an optimizer steps after the Backward.
type BatchNorm2d struct {
	Scope
	name     string
	C        int
	Eps      float32
	Momentum float32

	Gamma, Beta             *Param    // learned affine transform (BN-Opt's target)
	RunningMean, RunningVar []float32 // inference statistics

	// UseBatchStats forces batch statistics even outside training; this is
	// the switch internal/core flips to run BN-Norm / BN-Opt adaptation.
	UseBatchStats bool

	act tensor.Rect // the rectifier every forward ends in

	// Saved by the last forward for Backward; the layer holds in and out
	// (Scope) until its Backward has run.
	in, out      *tensor.Tensor // out is kept only when act gates a residual sum
	shape        []int          // in's shape
	hasRes       bool           // that forward added a residual
	inPlace      bool           // that forward wrote over in, so Backward refuses
	mean, invStd []float32      // per channel, as normalized with
	batchMode    bool           // those are batch statistics, so they depend on the input
	lastSpec     Spec
}

// NewBatchNorm2d constructs a BatchNorm over c channels with PyTorch
// defaults (eps 1e-5, momentum 0.1, gamma=1, beta=0, running var=1),
// ending in the rectifier act: tensor.Rect{} for none, {On: true} for
// ReLU, {On: true, Cap: 6} for ReLU6.
func NewBatchNorm2d(name string, c int, act tensor.Rect) *BatchNorm2d {
	bn := &BatchNorm2d{
		name: name, C: c, Eps: 1e-5, Momentum: 0.1, act: act,
		Gamma: newParam(name+".gamma", c), Beta: newParam(name+".beta", c),
		RunningMean: make([]float32, c), RunningVar: make([]float32, c),
	}
	for i := 0; i < c; i++ {
		bn.Gamma.Data[i] = 1
		bn.RunningVar[i] = 1
	}
	return bn
}

// Name implements Layer.
func (b *BatchNorm2d) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm2d) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Spec implements Layer.
func (b *BatchNorm2d) Spec() Spec { return b.lastSpec }

// Forward implements Layer: y = act(bn(x)).
func (b *BatchNorm2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return b.forward(x, nil, train, false)
}

// ForwardFused is Forward with a block's residual added before the
// rectifier, in the same pass over the activation: y = act(bn(x) + res),
// in that order per element, each step one rounding (res may be nil).
// Given equal statistics the result is bit-identical to normalizing, then
// adding res, then rectifying, each as a pass of its own.
// Backward/BackwardFused undo the whole pass.
func (b *BatchNorm2d) ForwardFused(x, res *tensor.Tensor, train bool) *tensor.Tensor {
	return b.forward(x, res, train, false)
}

// ForwardFusedInPlace is ForwardFused writing its result over x, for a
// caller that hands x over: nothing reads x after this layer, and res does
// not share its memory. Each channel is normalized only after its
// statistics are taken, so the result is bit-identical to ForwardFused's.
// The layer's saved input then holds its output, so Backward panics until
// its next forward that is not in place.
func (b *BatchNorm2d) ForwardFusedInPlace(x, res *tensor.Tensor, train bool) *tensor.Tensor {
	return b.forward(x, res, train, true)
}

// InPlace reports whether the layer's last forward wrote its result over
// its input (ForwardFusedInPlace).
func (b *BatchNorm2d) InPlace() bool { return b.inPlace }

func (b *BatchNorm2d) forward(x, res *tensor.Tensor, train, inPlace bool) *tensor.Tensor {
	if x.NDim() != 4 || x.Dim(1) != b.C {
		panic(shapeErr(b.name, x.Shape()))
	}
	if res != nil && !res.SameShape(x) {
		panic(fmt.Sprintf("nn: %s: residual shape %v does not match input %v", b.name, res.Shape(), x.Shape()))
	}
	t0 := profStart()
	n, plane := x.Dim(0), x.Dim(2)*x.Dim(3)
	cnt := n * plane
	batchMode := train || b.UseBatchStats
	b.batchMode = batchMode
	if b.mean == nil {
		b.mean, b.invStd = make([]float32, b.C), make([]float32, b.C)
	}
	var resData []float32
	if res != nil {
		resData = res.Data
	}

	y := x
	if !inPlace {
		y = b.Arena.New(x.Shape()...)
	}
	// Channel c is the n planes at c·plane, C·plane apart: one kernel call
	// per sweep. parallel.For schedules at grain 1: each channel's
	// statistics pass is heavy (two sweeps over n·plane values), so even a
	// 16-channel layer spreads across the pool. A channel is reduced by one
	// task, in the kernels' fixed lane order, so the statistics do not
	// depend on how many workers there are — and channels are disjoint, so
	// a normalize in place overwrites only what its own task has read.
	ch := tensor.Planes{N: n, Len: plane, Stride: b.C * plane}
	parallel.For(b.C, func(c int) {
		o := c * plane
		xc := x.Data[o:]
		var mean, varv float32
		if batchMode {
			// Two-pass mean/variance over the batch for this channel.
			var acc [tensor.StatLanes]float64
			tensor.SumPlanes(&acc, xc, ch)
			mean = float32(tensor.MergeLanes(&acc) / float64(cnt))
			acc = [tensor.StatLanes]float64{}
			tensor.SumSqDevPlanes(&acc, xc, ch, mean)
			s2 := tensor.MergeLanes(&acc)
			varv = float32(s2 / float64(cnt)) // biased, as PyTorch normalizes
			// Running stats use the unbiased estimate, as PyTorch does.
			unbiased := varv
			if cnt > 1 {
				unbiased = float32(s2 / float64(cnt-1))
			}
			b.RunningMean[c] += b.Momentum * (mean - b.RunningMean[c])
			b.RunningVar[c] += b.Momentum * (unbiased - b.RunningVar[c])
		} else {
			mean, varv = b.RunningMean[c], b.RunningVar[c]
		}
		inv := float32(1.0 / math.Sqrt(float64(varv)+float64(b.Eps)))
		b.mean[c], b.invStd[c] = mean, inv
		a := tensor.Affine{Mean: mean, InvStd: inv, Gamma: b.Gamma.Data[c], Beta: b.Beta.Data[c]}
		tensor.NormalizePlanes(y.Data[o:], xc, from(resData, o), ch, a, b.act)
	})

	b.in, b.out, b.hasRes, b.inPlace = x, nil, res != nil, inPlace
	b.shape = append(b.shape[:0], x.Shape()...)
	b.hold(x)
	if b.act.On && res != nil {
		b.out = y
		b.hold(y)
	}
	// PyTorch's graph saves the input for the normalize and, behind a
	// rectifier, the output for its mask.
	saved := int64(x.Numel())
	if b.act.On {
		saved += int64(y.Numel())
	}
	b.lastSpec = Spec{
		Kind: KindBN, LayerName: b.name,
		ParamCount: int64(2 * b.C),
		BNChannels: int64(b.C),
		OutElems:   int64(y.Numel()),
		SavedElems: saved,
		Rectifies:  b.act.On,
	}
	profEnd(KindBN, b.name, false, t0)
	return y
}

// Backward implements Layer. In batch-statistics mode it applies the full
// BatchNorm gradient (statistics depend on the input); in running-stats
// mode the statistics are constants and the gradient is a plain affine map.
// It takes the gradient of the rectified output and gates it by the
// rectifier first.
func (b *BatchNorm2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	dx, _ := b.BackwardFused(grad, nil)
	return dx
}

// BackwardFused is Backward for a block that fuses a residual into either
// pass. res, when non-nil, is the gradient that reaches the layer's input
// by another path of the block: it is added to each channel of dx right
// after that channel is written, one rounding per element, bit-identical
// to Backward followed by an add of its own. Beside dx it returns the
// gradient that reaches the forward's residual operand — grad gated by
// the rectifier, or grad itself when there was none — and nil when the
// forward had no residual.
func (b *BatchNorm2d) BackwardFused(grad, res *tensor.Tensor) (dx, dres *tensor.Tensor) {
	x := b.in
	if x == nil {
		panic("nn: " + b.name + ": Backward before Forward")
	}
	if b.inPlace {
		panic("nn: " + b.name + ": Backward after an in-place forward: the saved input holds the output")
	}
	if !sameShape(grad, b.shape) {
		panic(shapeErr(b.name, grad.Shape()))
	}
	var resData []float32
	if res != nil {
		if !sameShape(res, b.shape) {
			panic(fmt.Sprintf("nn: %s: residual shape %v does not match input %v", b.name, res.Shape(), b.shape))
		}
		resData = res.Data
	}
	t0 := profStart()
	n, plane := b.shape[0], b.shape[2]*b.shape[3]
	cnt := float32(n * plane)
	dx = b.Arena.New(b.shape...)
	// gate is the rectifier that let the forward through. Without a
	// residual the kernels recompute what it saw from x, γ and β. With one
	// the gated gradient is a result in its own right — it is what reaches
	// the residual operand — so each channel writes it out first, gated by
	// the saved output, and the batch-norm arithmetic reads it ungated.
	gate, dy := b.act, grad
	if b.hasRes {
		dres = grad
		if gate.On {
			dres = b.Arena.New(b.shape...)
			dy = dres
		}
	}

	ch := tensor.Planes{N: n, Len: plane, Stride: b.C * plane}
	parallel.For(b.C, func(c int) {
		o := c * plane
		rect := gate
		xc, gc, dyc := x.Data[o:], grad.Data[o:], dy.Data[o:]
		if dy != grad {
			tensor.RectGradPlanes(dyc, gc, b.out.Data[o:], ch, gate)
			rect = tensor.Rect{}
		}
		a := tensor.Affine{Mean: b.mean[c], InvStd: b.invStd[c], Gamma: b.Gamma.Data[c], Beta: b.Beta.Data[c]}
		var sumDy, sumDyXhat [tensor.StatLanes]float64
		tensor.GradSumsPlanes(&sumDy, &sumDyXhat, dyc, xc, ch, a, rect)
		sDy, sDyXhat := tensor.MergeLanes(&sumDy), tensor.MergeLanes(&sumDyXhat)
		if !b.Beta.Frozen {
			b.Beta.Grad[c] += float32(sDy)
		}
		if !b.Gamma.Frozen {
			b.Gamma.Grad[c] += float32(sDyXhat)
		}
		g := tensor.BNGrad{Affine: a, Scale: a.Gamma * a.InvStd,
			MeanDy: float32(sDy) / cnt, MeanDyXhat: float32(sDyXhat) / cnt, Vary: b.batchMode}
		tensor.GradInputPlanes(dx.Data[o:], dyc, xc, ch, g, rect)
		if resData != nil {
			tensor.AddPlanes(dx.Data[o:], resData[o:], ch)
		}
	})
	b.Arena.Unhold(b.in)
	b.Arena.Unhold(b.out)
	profEnd(KindBN, b.name, true, t0)
	return dx, dres
}

// from returns s[o:], or nil when s is: an absent operand stays absent.
func from(s []float32, o int) []float32 {
	if s == nil {
		return nil
	}
	return s[o:]
}
