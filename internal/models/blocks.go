// Package models implements the four DNN architectures of the study —
// PreActResNet-18, WideResNet-40-2, ResNeXt-29 (4×32d) and MobileNetV2 —
// at full scale (parameter and batch-norm counts match the paper exactly)
// and at a reduced "repro scale" that is fast enough to train in-process
// for the accuracy experiments.
package models

import (
	"math/rand"

	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// The rectifiers a BatchNorm may end in.
var (
	linear = tensor.Rect{}
	relu   = tensor.Rect{On: true}
	relu6  = tensor.Rect{On: true, Cap: 6}
)

// convBN runs conv→bn(+res), bn's rectifier last, on x for a block with
// scope s (what nn.Attach bound it to). The convolution's output has that
// one reader, so it is freed once the normalize has read it — and under
// Infer, where nobody holds it for a Backward, the normalize writes over
// it.
func convBN(s *nn.Scope, conv *nn.Conv2d, bn *nn.BatchNorm2d, x, res *tensor.Tensor, train bool) *tensor.Tensor {
	c := conv.Forward(x, train)
	if s.Infer {
		return bn.ForwardFusedInPlace(c, res, train)
	}
	y := bn.ForwardFused(c, res, train)
	s.Arena.Free(c)
	return y
}

// convBNBackward takes grad back through a convBN to its x, plus res when
// that is non-nil: the gradient that reaches x by the block's other path,
// an operand of the conv's dX (what reaches a forward res is
// BatchNorm2d.BackwardFused's to give).
func convBNBackward(s *nn.Scope, conv *nn.Conv2d, bn *nn.BatchNorm2d, grad, res *tensor.Tensor) *tensor.Tensor {
	d := bn.Backward(grad)
	dx := conv.BackwardFused(d, res)
	s.Arena.Free(d)
	return dx
}

// PreActBlock is the pre-activation residual block used by both
// PreActResNet-18 and WideResNet: bn→relu→conv3×3→bn→relu→conv3×3 plus a
// shortcut. When the shape changes, the shortcut is a 1×1 convolution of
// the *activated* input (so the shortcut has no BatchNorm — this is what
// makes the paper's 7808 BN-parameter count for ResNet-18 come out).
//
// A residual sum is an operand of the layer that makes one of its addends,
// never a pass of its own: forward, conv2 adds the shortcut to each image
// it writes; backward, conv1's dX adds the shortcut conv's dX — to the
// one residue output of its own that lies where the strided 1×1 shortcut's
// taps do, before un-staging, so the shortcut's dX is never un-staged — or
// bn1's backward adds the block's gradient on the identity path.
type PreActBlock struct {
	nn.Scope
	name         string
	bn1, bn2     *nn.BatchNorm2d // each ends in a ReLU
	conv1, conv2 *nn.Conv2d
	convSC       *nn.Conv2d // nil for identity shortcut
}

// NewPreActBlock constructs a pre-activation block in→out with the given
// stride on the first convolution.
func NewPreActBlock(name string, rng *rand.Rand, in, out, stride int) *PreActBlock {
	b := &PreActBlock{
		name:  name,
		bn1:   nn.NewBatchNorm2d(name+".bn1", in, relu),
		conv1: nn.NewConv2d(name+".conv1", rng, in, out, 3, stride, 1, 1),
		bn2:   nn.NewBatchNorm2d(name+".bn2", out, relu),
		conv2: nn.NewConv2d(name+".conv2", rng, out, out, 3, 1, 1, 1),
	}
	if stride != 1 || in != out {
		b.convSC = nn.NewConv2d(name+".shortcut", rng, in, out, 1, stride, 0, 1)
	}
	return b
}

// Name implements nn.Layer.
func (b *PreActBlock) Name() string { return b.name }

// Params implements nn.Layer; composites report none of their own.
func (b *PreActBlock) Params() []*nn.Param { return nil }

// Spec implements nn.Layer.
func (b *PreActBlock) Spec() nn.Spec { return nn.Spec{Kind: nn.KindComposite, LayerName: b.name} }

// Children implements nn.Container.
func (b *PreActBlock) Children() []nn.Layer {
	ch := []nn.Layer{b.bn1, b.conv1, b.bn2, b.conv2}
	if b.convSC != nil {
		ch = append(ch, b.convSC)
	}
	return ch
}

// Forward implements nn.Layer.
func (b *PreActBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a := b.bn1.Forward(x, train)
	sc := x
	if b.convSC != nil {
		sc = b.convSC.Forward(a, train)
	}
	a2 := convBN(&b.Scope, b.conv1, b.bn2, a, nil, train)
	b.Arena.Free(a)
	h := b.conv2.ForwardFused(a2, sc, train)
	b.Arena.Free(a2)
	if b.convSC != nil {
		b.Arena.Free(sc)
	}
	return h
}

// Backward implements nn.Layer. grad has two readers, the residual branch
// and the shortcut, and stays the caller's.
func (b *PreActBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d2 := b.conv2.Backward(grad)
	d1 := b.bn2.Backward(d2)
	b.Arena.Free(d2)
	if b.convSC == nil { // identity shortcut: grad reaches x itself
		dh := b.conv1.Backward(d1)
		b.Arena.Free(d1)
		dx, _ := b.bn1.BackwardFused(dh, grad)
		b.Arena.Free(dh)
		return dx
	}
	dsc := b.convSC.BackwardSampled(grad) // given on the stride grid alone: zero off it
	dh := b.conv1.BackwardFused(d1, dsc)
	b.Arena.Free(d1)
	b.Arena.Free(dsc)
	dx := b.bn1.Backward(dh)
	b.Arena.Free(dh)
	return dx
}

// ResNeXtBlock is the aggregated-transform bottleneck:
// conv1×1→bn→relu→conv3×3(grouped)→bn→relu→conv1×1→bn, plus a projection
// shortcut (conv1×1+bn) when the shape changes, with ReLU after the sum.
// The sum is bn3's operand forward and conv1's dX's backward.
type ResNeXtBlock struct {
	nn.Scope
	name                string
	conv1, conv2, conv3 *nn.Conv2d
	bn1, bn2, bn3       *nn.BatchNorm2d // each ends in a ReLU, bn3's after the sum
	convSC              *nn.Conv2d
	bnSC                *nn.BatchNorm2d
}

// NewResNeXtBlock constructs a block in→out with bottleneck width d and
// the given cardinality (groups of the 3×3 convolution).
func NewResNeXtBlock(name string, rng *rand.Rand, in, d, out, cardinality, stride int) *ResNeXtBlock {
	b := &ResNeXtBlock{
		name:  name,
		conv1: nn.NewConv2d(name+".conv1", rng, in, d, 1, 1, 0, 1),
		bn1:   nn.NewBatchNorm2d(name+".bn1", d, relu),
		conv2: nn.NewConv2d(name+".conv2", rng, d, d, 3, stride, 1, cardinality),
		bn2:   nn.NewBatchNorm2d(name+".bn2", d, relu),
		conv3: nn.NewConv2d(name+".conv3", rng, d, out, 1, 1, 0, 1),
		bn3:   nn.NewBatchNorm2d(name+".bn3", out, relu),
	}
	if stride != 1 || in != out {
		b.convSC = nn.NewConv2d(name+".shortcut.conv", rng, in, out, 1, stride, 0, 1)
		b.bnSC = nn.NewBatchNorm2d(name+".shortcut.bn", out, linear)
	}
	return b
}

// Name implements nn.Layer.
func (b *ResNeXtBlock) Name() string { return b.name }

// Params implements nn.Layer.
func (b *ResNeXtBlock) Params() []*nn.Param { return nil }

// Spec implements nn.Layer.
func (b *ResNeXtBlock) Spec() nn.Spec { return nn.Spec{Kind: nn.KindComposite, LayerName: b.name} }

// Children implements nn.Container.
func (b *ResNeXtBlock) Children() []nn.Layer {
	ch := []nn.Layer{b.conv1, b.bn1, b.conv2, b.bn2, b.conv3, b.bn3}
	if b.convSC != nil {
		ch = append(ch, b.convSC, b.bnSC)
	}
	return ch
}

// Forward implements nn.Layer.
func (b *ResNeXtBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h1 := convBN(&b.Scope, b.conv1, b.bn1, x, nil, train)
	h2 := convBN(&b.Scope, b.conv2, b.bn2, h1, nil, train)
	b.Arena.Free(h1)
	sc := x
	if b.convSC != nil {
		sc = convBN(&b.Scope, b.convSC, b.bnSC, x, nil, train)
	}
	y := convBN(&b.Scope, b.conv3, b.bn3, h2, sc, train)
	b.Arena.Free(h2)
	if b.convSC != nil {
		b.Arena.Free(sc)
	}
	return y
}

// Backward implements nn.Layer. The gradient of the sum has two readers,
// the residual branch (through bn3) and the shortcut; the shortcut runs
// first, so that what it gives x is an operand of conv1's dX.
func (b *ResNeXtBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d3, dsum := b.bn3.BackwardFused(grad, nil)
	dsc := dsum // what reaches x by the shortcut
	if b.convSC != nil {
		dsc = convBNBackward(&b.Scope, b.convSC, b.bnSC, dsum, nil)
	}
	d2 := b.conv3.Backward(d3)
	b.Arena.Free(d3)
	d1 := convBNBackward(&b.Scope, b.conv2, b.bn2, d2, nil)
	b.Arena.Free(d2)
	dx := convBNBackward(&b.Scope, b.conv1, b.bn1, d1, dsc)
	b.Arena.Free(d1)
	if b.convSC != nil {
		b.Arena.Free(dsc)
	}
	if dsum != grad { // bn3 made it (a rectifier gated grad); otherwise it is the caller's
		b.Arena.Free(dsum)
	}
	return dx
}

// InvertedResidual is MobileNetV2's block: optional 1×1 expansion
// (bn+relu6), 3×3 depthwise convolution (bn+relu6), and a linear 1×1
// projection (bn), with a residual connection when the shape is preserved.
type InvertedResidual struct {
	nn.Scope
	name     string
	expand   *nn.Conv2d // nil when expansion factor is 1
	bnE      *nn.BatchNorm2d
	dw       *nn.Conv2d
	bnD      *nn.BatchNorm2d
	project  *nn.Conv2d
	bnP      *nn.BatchNorm2d // the one without a rectifier
	residual bool
}

// NewInvertedResidual constructs a block in→out with the given stride and
// expansion factor t.
func NewInvertedResidual(name string, rng *rand.Rand, in, out, stride, t int) *InvertedResidual {
	hidden := in * t
	b := &InvertedResidual{
		name:     name,
		dw:       nn.NewConv2d(name+".dw", rng, hidden, hidden, 3, stride, 1, hidden),
		bnD:      nn.NewBatchNorm2d(name+".bnD", hidden, relu6),
		project:  nn.NewConv2d(name+".project", rng, hidden, out, 1, 1, 0, 1),
		bnP:      nn.NewBatchNorm2d(name+".bnP", out, linear),
		residual: stride == 1 && in == out,
	}
	if t != 1 {
		b.expand = nn.NewConv2d(name+".expand", rng, in, hidden, 1, 1, 0, 1)
		b.bnE = nn.NewBatchNorm2d(name+".bnE", hidden, relu6)
	}
	return b
}

// Name implements nn.Layer.
func (b *InvertedResidual) Name() string { return b.name }

// Params implements nn.Layer.
func (b *InvertedResidual) Params() []*nn.Param { return nil }

// Spec implements nn.Layer.
func (b *InvertedResidual) Spec() nn.Spec {
	return nn.Spec{Kind: nn.KindComposite, LayerName: b.name}
}

// Children implements nn.Container.
func (b *InvertedResidual) Children() []nn.Layer {
	var ch []nn.Layer
	if b.expand != nil {
		ch = append(ch, b.expand, b.bnE)
	}
	return append(ch, b.dw, b.bnD, b.project, b.bnP)
}

// Forward implements nn.Layer.
func (b *InvertedResidual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := x
	if b.expand != nil {
		h = convBN(&b.Scope, b.expand, b.bnE, x, nil, train)
	}
	h2 := convBN(&b.Scope, b.dw, b.bnD, h, nil, train)
	if b.expand != nil {
		b.Arena.Free(h)
	}
	var res *tensor.Tensor
	if b.residual {
		res = x
	}
	y := convBN(&b.Scope, b.project, b.bnP, h2, res, train)
	b.Arena.Free(h2)
	return y
}

// Backward implements nn.Layer. The residual passes grad through
// unchanged, an operand of the first conv's dX.
func (b *InvertedResidual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	var res *tensor.Tensor
	if b.residual {
		res = grad
	}
	dp := convBNBackward(&b.Scope, b.project, b.bnP, grad, nil)
	if b.expand == nil {
		dx := convBNBackward(&b.Scope, b.dw, b.bnD, dp, res)
		b.Arena.Free(dp)
		return dx
	}
	dh := convBNBackward(&b.Scope, b.dw, b.bnD, dp, nil)
	b.Arena.Free(dp)
	dx := convBNBackward(&b.Scope, b.expand, b.bnE, dh, res)
	b.Arena.Free(dh)
	return dx
}
