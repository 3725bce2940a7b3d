package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/nn"
	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

// The reference: every block as the chain of its child layers, one Forward
// and one Backward call per layer, each residual sum a scalar pass of its
// own (addRef), and each BatchNorm's rectifier a scalar pass of its own
// after the add. A
// reference runs a clone of the model whose BatchNorms stand in for
// twins built without a rectifier; refForward/refBackward walk its
// top-level Sequential the same way.

// addRef is a residual sum of the reference: y += x, a scalar float32 add
// per element, one rounding each.
func addRef(y, x *tensor.Tensor) {
	if !y.SameShape(x) {
		panic("addRef: shapes differ")
	}
	for i, v := range x.Data {
		y.Data[i] += v
	}
}

// rectRef is the rectifier as tensor.Rect documents it: max(0, v),
// clamped to Cap when there is one, NaN → 0 and −0 → +0.
func rectRef(v float32, r tensor.Rect) float32 {
	switch {
	case !r.On:
		return v
	case !(v > 0):
		return 0
	case r.Cap != 0 && v > r.Cap:
		return r.Cap
	}
	return v
}

// refNorm is a BatchNorm of the reference: its twin without a rectifier,
// the rectifier, and the rectified output of the last forward, which the
// backward gates by.
type refNorm struct {
	bn  *nn.BatchNorm2d
	act tensor.Rect
	out *tensor.Tensor
}

type reference struct {
	m     *Model
	top   tensor.Rect // the rectifier of the top-level Sequential's BatchNorms
	norms map[*nn.BatchNorm2d]*refNorm
}

func newReference(m *Model) *reference {
	r := &reference{m: m.Clone(), top: relu, norms: map[*nn.BatchNorm2d]*refNorm{}}
	if m.Tag == "MBV2" {
		r.top = relu6
	}
	return r
}

// fw runs bn's twin on x, adds res, and rectifies by act.
func (r *reference) fw(bn *nn.BatchNorm2d, act tensor.Rect, x, res *tensor.Tensor, train bool) *tensor.Tensor {
	n := r.norms[bn]
	if n == nil {
		n = &refNorm{bn: nn.NewBatchNorm2d(bn.Name(), bn.C, tensor.Rect{}), act: act}
		nn.CopyState(n.bn, bn)
		r.norms[bn] = n
	}
	y := n.bn.Forward(x, train)
	if res != nil {
		addRef(y, res)
	}
	for i, v := range y.Data {
		y.Data[i] = rectRef(v, act)
	}
	n.out = y
	return y
}

// gate is grad through bn's rectifier, read from the output: grad where
// the output lies strictly inside (0, Cap), +0 elsewhere.
func (r *reference) gate(bn *nn.BatchNorm2d, grad *tensor.Tensor) *tensor.Tensor {
	n := r.norms[bn]
	d := grad.Clone()
	for i, o := range n.out.Data {
		if n.act.On && !(o > 0 && (n.act.Cap == 0 || o < n.act.Cap)) {
			d.Data[i] = 0
		}
	}
	return d
}

func (r *reference) bw(bn *nn.BatchNorm2d, grad *tensor.Tensor) *tensor.Tensor {
	return r.norms[bn].bn.Backward(r.gate(bn, grad))
}

// leaf is what l is in the reference: its twin, for a BatchNorm.
func (r *reference) leaf(l nn.Layer) nn.Layer {
	if bn, ok := l.(*nn.BatchNorm2d); ok {
		return r.norms[bn].bn
	}
	return l
}

func (b *PreActBlock) refForward(r *reference, x *tensor.Tensor, train bool) *tensor.Tensor {
	a := r.fw(b.bn1, relu, x, nil, train)
	sc := x
	if b.convSC != nil {
		sc = b.convSC.Forward(a, train)
	}
	h := b.conv1.Forward(a, train)
	h = b.conv2.Forward(r.fw(b.bn2, relu, h, nil, train), train)
	addRef(h, sc)
	return h
}

func (b *PreActBlock) refBackward(r *reference, grad *tensor.Tensor) *tensor.Tensor {
	dh := b.conv1.Backward(r.bw(b.bn2, b.conv2.Backward(grad)))
	if b.convSC != nil {
		addRef(dh, b.convSC.Backward(grad))
		return r.bw(b.bn1, dh)
	}
	dx := r.bw(b.bn1, dh)
	addRef(dx, grad)
	return dx
}

func (b *ResNeXtBlock) refForward(r *reference, x *tensor.Tensor, train bool) *tensor.Tensor {
	h := r.fw(b.bn1, relu, b.conv1.Forward(x, train), nil, train)
	h = r.fw(b.bn2, relu, b.conv2.Forward(h, train), nil, train)
	sc := x
	if b.convSC != nil {
		sc = r.fw(b.bnSC, linear, b.convSC.Forward(x, train), nil, train)
	}
	return r.fw(b.bn3, relu, b.conv3.Forward(h, train), sc, train)
}

func (b *ResNeXtBlock) refBackward(r *reference, grad *tensor.Tensor) *tensor.Tensor {
	dsum := r.gate(b.bn3, grad)
	dx := b.conv1.Backward(r.bw(b.bn1, b.conv2.Backward(r.bw(b.bn2,
		b.conv3.Backward(r.norms[b.bn3].bn.Backward(dsum))))))
	if b.convSC != nil {
		addRef(dx, b.convSC.Backward(r.bw(b.bnSC, dsum)))
	} else {
		addRef(dx, dsum)
	}
	return dx
}

func (b *InvertedResidual) refForward(r *reference, x *tensor.Tensor, train bool) *tensor.Tensor {
	h := x
	if b.expand != nil {
		h = r.fw(b.bnE, relu6, b.expand.Forward(h, train), nil, train)
	}
	h = r.fw(b.bnD, relu6, b.dw.Forward(h, train), nil, train)
	var res *tensor.Tensor
	if b.residual {
		res = x
	}
	return r.fw(b.bnP, linear, b.project.Forward(h, train), res, train)
}

func (b *InvertedResidual) refBackward(r *reference, grad *tensor.Tensor) *tensor.Tensor {
	dh := b.dw.Backward(r.bw(b.bnD, b.project.Backward(r.bw(b.bnP, grad))))
	if b.expand != nil {
		dh = b.expand.Backward(r.bw(b.bnE, dh))
	}
	if b.residual {
		addRef(dh, grad)
	}
	return dh
}

type refBlock interface {
	refForward(r *reference, x *tensor.Tensor, train bool) *tensor.Tensor
	refBackward(r *reference, grad *tensor.Tensor) *tensor.Tensor
}

func (r *reference) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range r.m.Net.(nn.Container).Children() {
		switch l := l.(type) {
		case refBlock:
			x = l.refForward(r, x, train)
		case *nn.BatchNorm2d:
			x = r.fw(l, r.top, x, nil, train)
		default:
			x = l.Forward(x, train)
		}
	}
	return x
}

func (r *reference) backward(grad *tensor.Tensor) *tensor.Tensor {
	ch := r.m.Net.(nn.Container).Children()
	for i := len(ch) - 1; i >= 0; i-- {
		switch l := ch[i].(type) {
		case refBlock:
			grad = l.refBackward(r, grad)
		case *nn.BatchNorm2d:
			grad = r.bw(l, grad)
		default:
			grad = l.Backward(grad)
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
// the fused BN(+residual)(+rectifier) pass — is bit-equal, in outputs,
// input gradient, every parameter gradient and every running statistic,
// to a clone driven one child layer at a time with each rectifier a pass
// of its own. Batch statistics and running statistics are both covered;
// all three block types, identity and projection shortcuts, ReLU and ReLU6
// occur among the four.
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
			ref := newReference(m)
			x := tensor.New(3, m.InC, m.InHW, m.InHW)
			x.Uniform(rng, 0, 1)

			y, yRef := m.Forward(x, train), ref.forward(x, train)
			if !bitsEqual(y.Data, yRef.Data) {
				t.Fatalf("%s train=%v: logits differ from the layer-by-layer reference", m.Tag, train)
			}
			g := tensor.New(y.Shape()...)
			g.Randn(rng, 1)
			dx, dxRef := m.Backward(g), ref.backward(g)
			if !bitsEqual(dx.Data, dxRef.Data) {
				t.Fatalf("%s train=%v: input gradient differs from the layer-by-layer reference", m.Tag, train)
			}
			var leaves, refLeaves []nn.Layer
			nn.Walk(m.Net, func(l nn.Layer) { leaves = append(leaves, l) })
			nn.Walk(ref.m.Net, func(l nn.Layer) { refLeaves = append(refLeaves, l) })
			for i, l := range leaves {
				lr := ref.leaf(refLeaves[i])
				pr := lr.Params()
				for j, p := range l.Params() {
					if !bitsEqual(p.Grad, pr[j].Grad) {
						t.Fatalf("%s train=%v: %s gradient differs from the layer-by-layer reference", m.Tag, train, p.Name)
					}
				}
				// Specs feed internal/device: a BatchNorm's records the
				// twin's forward, its rectifier, and the output PyTorch
				// saves for that.
				want := lr.Spec()
				if bn, ok := refLeaves[i].(*nn.BatchNorm2d); ok && ref.norms[bn].act.On {
					want.Rectifies, want.SavedElems = true, want.SavedElems+want.OutElems
				}
				if l.Spec() != want {
					t.Fatalf("%s train=%v: %s Spec %+v, the reference's %+v", m.Tag, train, l.Name(), l.Spec(), want)
				}
			}
			br := ref.m.BatchNorms()
			for i, bn := range m.BatchNorms() {
				twin := ref.norms[br[i]].bn
				if !bitsEqual(bn.RunningMean, twin.RunningMean) || !bitsEqual(bn.RunningVar, twin.RunningVar) {
					t.Fatalf("%s train=%v: %s running statistics differ from the reference", m.Tag, train, bn.Name())
				}
			}
		}
	}
}

// TestResidualOperandsMatchSeparateAdd is the residual operand's contract:
// every block kind, with an identity and with a projection shortcut, is
// bit-equal in output, input gradient and every parameter gradient to a
// twin built from the same seed and run layer by layer with each residual
// sum a scalar pass of its own after the layer that made its addend —
// forward the conv, backward the conv's dX or the batch norm's. The block
// runs on an arena that is filled with NaN before each of two passes and
// fills each buffer it takes back, at 1, 2 and 8 workers (three images:
// uneven ranges). A sum skipped or taken twice moves the output or dX.
func TestResidualOperandsMatchSeparateAdd(t *testing.T) {
	defer parallel.SetWorkers(0)
	blocks := []struct {
		name  string
		in    int
		build func(rng *rand.Rand) nn.Layer
	}{
		{"preact/identity", 8, func(rng *rand.Rand) nn.Layer { return NewPreActBlock("b", rng, 8, 8, 1) }},
		{"preact/projection", 8, func(rng *rand.Rand) nn.Layer { return NewPreActBlock("b", rng, 8, 16, 2) }},
		{"preact/projection-stride1", 8, func(rng *rand.Rand) nn.Layer { return NewPreActBlock("b", rng, 8, 16, 1) }},
		{"resnext/identity", 16, func(rng *rand.Rand) nn.Layer { return NewResNeXtBlock("b", rng, 16, 8, 16, 2, 1) }},
		{"resnext/projection", 8, func(rng *rand.Rand) nn.Layer { return NewResNeXtBlock("b", rng, 8, 8, 16, 2, 2) }},
		{"inverted/expand", 8, func(rng *rand.Rand) nn.Layer { return NewInvertedResidual("b", rng, 8, 8, 1, 6) }},
		{"inverted/depthwise", 8, func(rng *rand.Rand) nn.Layer { return NewInvertedResidual("b", rng, 8, 8, 1, 1) }},
	}
	build := func(c int) nn.Layer {
		b := blocks[c].build(rand.New(rand.NewSource(21)))
		rng := rand.New(rand.NewSource(22))
		nn.Walk(b, func(l nn.Layer) {
			if bn, ok := l.(*nn.BatchNorm2d); ok {
				for i := range bn.Gamma.Data {
					bn.Gamma.Data[i] = float32(1 + 0.3*rng.NormFloat64())
					bn.Beta.Data[i] = float32(0.3 * rng.NormFloat64())
				}
			}
		})
		return b
	}
	for c, blk := range blocks {
		for _, workers := range []int{1, 2, 8} {
			parallel.SetWorkers(workers)
			at := fmt.Sprintf("%s, %d workers", blk.name, workers)
			fused, twin := build(c), build(c)
			arena := new(tensor.Arena)
			nn.Attach(fused, arena, false)
			ref := &reference{norms: map[*nn.BatchNorm2d]*refNorm{}}
			rng := rand.New(rand.NewSource(23))
			for pass := 0; pass < 2; pass++ {
				arena.Reset()
				poison(arena)
				x := tensor.New(3, blk.in, 8, 8)
				x.Uniform(rng, -1, 1)
				y, yRef := fused.Forward(x, true), twin.(refBlock).refForward(ref, x, true)
				if !bitsEqual(y.Data, yRef.Data) {
					t.Fatalf("%s, pass %d: the output differs from the separate add", at, pass)
				}
				g := tensor.New(y.Shape()...)
				g.Randn(rng, 1)
				dx, dxRef := fused.Backward(g), twin.(refBlock).refBackward(ref, g)
				if !bitsEqual(dx.Data, dxRef.Data) {
					t.Fatalf("%s, pass %d: the input gradient differs from the separate add", at, pass)
				}
				var leaves, refLeaves []nn.Layer
				nn.Walk(fused, func(l nn.Layer) { leaves = append(leaves, l) })
				nn.Walk(twin, func(l nn.Layer) { refLeaves = append(refLeaves, l) })
				for i, l := range leaves {
					pr := ref.leaf(refLeaves[i]).Params()
					for j, p := range l.Params() {
						if !bitsEqual(p.Grad, pr[j].Grad) {
							t.Fatalf("%s, pass %d: %s gradient differs from the separate add", at, pass, p.Name)
						}
					}
				}
				arena.Free(y)
				arena.Free(dx)
			}
		}
	}
}
