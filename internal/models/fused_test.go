package models

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// The reference: every block as the chain of its child layers, one Forward
// and one Backward call per layer, residual adds as Tensor.Add — what the
// blocks ran before BatchNorm2d.ForwardFused. refForward/refBackward walk a
// model's top-level Sequential the same way.

func (b *PreActBlock) refForward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a := b.relu1.Forward(b.bn1.Forward(x, train), train)
	sc := x
	if b.convSC != nil {
		sc = b.convSC.Forward(a, train)
	}
	h := b.conv1.Forward(a, train)
	h = b.conv2.Forward(b.relu2.Forward(b.bn2.Forward(h, train), train), train)
	h.Add(sc)
	return h
}

func (b *PreActBlock) refBackward(grad *tensor.Tensor) *tensor.Tensor {
	dh := b.conv1.Backward(b.bn2.Backward(b.relu2.Backward(b.conv2.Backward(grad))))
	if b.convSC != nil {
		dh.Add(b.convSC.Backward(grad))
		return b.bn1.Backward(b.relu1.Backward(dh))
	}
	dx := b.bn1.Backward(b.relu1.Backward(dh))
	dx.Add(grad)
	return dx
}

func (b *ResNeXtBlock) refForward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := b.relu1.Forward(b.bn1.Forward(b.conv1.Forward(x, train), train), train)
	h = b.relu2.Forward(b.bn2.Forward(b.conv2.Forward(h, train), train), train)
	h = b.bn3.Forward(b.conv3.Forward(h, train), train)
	if b.convSC != nil {
		h.Add(b.bnSC.Forward(b.convSC.Forward(x, train), train))
	} else {
		h.Add(x)
	}
	return b.reluOut.Forward(h, train)
}

func (b *ResNeXtBlock) refBackward(grad *tensor.Tensor) *tensor.Tensor {
	dsum := b.reluOut.Backward(grad)
	dx := b.conv1.Backward(b.bn1.Backward(b.relu1.Backward(
		b.conv2.Backward(b.bn2.Backward(b.relu2.Backward(
			b.conv3.Backward(b.bn3.Backward(dsum))))))))
	if b.convSC != nil {
		dx.Add(b.convSC.Backward(b.bnSC.Backward(dsum)))
	} else {
		dx.Add(dsum)
	}
	return dx
}

func (b *InvertedResidual) refForward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := x
	if b.expand != nil {
		h = b.reluE.Forward(b.bnE.Forward(b.expand.Forward(h, train), train), train)
	}
	h = b.reluD.Forward(b.bnD.Forward(b.dw.Forward(h, train), train), train)
	h = b.bnP.Forward(b.project.Forward(h, train), train)
	if b.residual {
		h.Add(x)
	}
	return h
}

func (b *InvertedResidual) refBackward(grad *tensor.Tensor) *tensor.Tensor {
	dh := b.dw.Backward(b.bnD.Backward(b.reluD.Backward(
		b.project.Backward(b.bnP.Backward(grad)))))
	if b.expand != nil {
		dh = b.expand.Backward(b.bnE.Backward(b.reluE.Backward(dh)))
	}
	if b.residual {
		dh.Add(grad)
	}
	return dh
}

type refBlock interface {
	refForward(x *tensor.Tensor, train bool) *tensor.Tensor
	refBackward(grad *tensor.Tensor) *tensor.Tensor
}

func refForward(m *Model, x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range m.Net.(nn.Container).Children() {
		if b, ok := l.(refBlock); ok {
			x = b.refForward(x, train)
		} else {
			x = l.Forward(x, train)
		}
	}
	return x
}

func refBackward(m *Model, grad *tensor.Tensor) *tensor.Tensor {
	ch := m.Net.(nn.Container).Children()
	for i := len(ch) - 1; i >= 0; i-- {
		if b, ok := ch[i].(refBlock); ok {
			grad = b.refBackward(grad)
		} else {
			grad = ch[i].Backward(grad)
		}
	}
	return grad
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFusedBlocksMatchLayerByLayerReference: for each of the study's four
// architectures, the model as it runs — blocks and top-level Sequential on
// the fused BN(+residual)(+ReLU) pass — is bit-equal, in outputs, input
// gradient, every parameter gradient and every running statistic, to a
// clone driven one child layer at a time. Batch statistics and running
// statistics are both covered; all three block types, identity and
// projection shortcuts, ReLU and ReLU6 occur among the four.
func TestFusedBlocksMatchLayerByLayerReference(t *testing.T) {
	for _, build := range []Builder{PreActResNet18, WideResNet402, ResNeXt29, MobileNetV2} {
		for _, train := range []bool{true, false} {
			m := build(rand.New(rand.NewSource(9)), ReproScale)
			// Non-trivial γ/β so a rectifier sees both signs in every channel.
			rng := rand.New(rand.NewSource(10))
			for _, bn := range m.BatchNorms() {
				for c := range bn.Gamma.Data {
					bn.Gamma.Data[c] = float32(1 + 0.3*rng.NormFloat64())
					bn.Beta.Data[c] = float32(0.3 * rng.NormFloat64())
				}
			}
			ref := m.Clone()
			x := tensor.New(3, m.InC, m.InHW, m.InHW)
			x.Uniform(rng, 0, 1)

			y, yRef := m.Forward(x, train), refForward(ref, x, train)
			if !bitsEqual(y.Data, yRef.Data) {
				t.Fatalf("%s train=%v: logits differ from the layer-by-layer reference", m.Tag, train)
			}
			g := tensor.New(y.Shape()...)
			g.Randn(rng, 1)
			dx, dxRef := m.Backward(g), refBackward(ref, g)
			if !bitsEqual(dx.Data, dxRef.Data) {
				t.Fatalf("%s train=%v: input gradient differs from the layer-by-layer reference", m.Tag, train)
			}
			pr := ref.Params()
			for i, p := range m.Params() {
				if !bitsEqual(p.Grad, pr[i].Grad) {
					t.Fatalf("%s train=%v: %s gradient differs from the layer-by-layer reference", m.Tag, train, p.Name)
				}
			}
			br := ref.BatchNorms()
			for i, bn := range m.BatchNorms() {
				if !bitsEqual(bn.RunningMean, br[i].RunningMean) || !bitsEqual(bn.RunningVar, br[i].RunningVar) {
					t.Fatalf("%s train=%v: %s running statistics differ from the reference", m.Tag, train, bn.Name())
				}
			}
			// Specs feed internal/device: fused or not, every layer reports
			// the forward it took part in.
			var specs, specsRef []nn.Spec
			nn.Walk(m.Net, func(l nn.Layer) { specs = append(specs, l.Spec()) })
			nn.Walk(ref.Net, func(l nn.Layer) { specsRef = append(specsRef, l.Spec()) })
			if !reflect.DeepEqual(specs, specsRef) {
				t.Fatalf("%s train=%v: layer Specs differ from the layer-by-layer reference", m.Tag, train)
			}
		}
	}
}
