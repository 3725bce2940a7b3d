package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/tensor"
)

// projLoss is a deterministic scalar loss: the dot product of the layer
// output with a fixed random projection. Its gradient w.r.t. the output is
// the projection itself, which lets us exercise any layer's Backward.
type projLoss struct{ w []float32 }

func newProjLoss(rng *rand.Rand, n int) *projLoss {
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	return &projLoss{w: w}
}

func (p *projLoss) value(y *tensor.Tensor) float64 {
	s := 0.0
	for i, v := range y.Data {
		s += float64(v) * float64(p.w[i])
	}
	return s
}

func (p *projLoss) grad(shape []int) *tensor.Tensor {
	return tensor.FromSlice(append([]float32(nil), p.w...), shape...)
}

// checkGrad compares analytic gradients of loss(layer.Forward(x)) w.r.t.
// the given value slice against central finite differences.
func checkGrad(t *testing.T, name string, forward func() float64, vals, analytic []float32, tol float64) {
	t.Helper()
	for i := range vals {
		const eps = 1e-2
		old := vals[i]
		vals[i] = old + eps
		lp := forward()
		vals[i] = old - eps
		lm := forward()
		vals[i] = old
		num := (lp - lm) / (2 * eps)
		got := float64(analytic[i])
		if math.Abs(num-got) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s: grad[%d] analytic %.5f vs numeric %.5f", name, i, got, num)
		}
	}
}

func TestConv2dMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ in, out, k, stride, pad, groups int }{
		{3, 8, 3, 1, 1, 1},
		{4, 6, 3, 2, 1, 2},
		{8, 8, 3, 1, 1, 8}, // depthwise
		{6, 4, 1, 1, 0, 2},
	} {
		conv := NewConv2d("c", rng, tc.in, tc.out, tc.k, tc.stride, tc.pad, tc.groups)
		x := tensor.New(2, tc.in, 6, 6)
		x.Randn(rng, 1)
		y := conv.Forward(x, false)
		// Naive direct convolution.
		inCg, outCg := tc.in/tc.groups, tc.out/tc.groups
		oh, ow := y.Dim(2), y.Dim(3)
		for img := 0; img < 2; img++ {
			for oc := 0; oc < tc.out; oc++ {
				g := oc / outCg
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						s := float64(0)
						for ic := 0; ic < inCg; ic++ {
							for ky := 0; ky < tc.k; ky++ {
								for kx := 0; kx < tc.k; kx++ {
									iy, ix := oy*tc.stride-tc.pad+ky, ox*tc.stride-tc.pad+kx
									if iy < 0 || iy >= 6 || ix < 0 || ix >= 6 {
										continue
									}
									xv := x.At(img, g*inCg+ic, iy, ix)
									wv := conv.Weight.Data[((oc-g*outCg)+g*outCg)*inCg*tc.k*tc.k+ic*tc.k*tc.k+ky*tc.k+kx]
									s += float64(xv) * float64(wv)
								}
							}
						}
						if got := float64(y.At(img, oc, oy, ox)); math.Abs(got-s) > 1e-3 {
							t.Fatalf("%+v: y[%d,%d,%d,%d] = %v, want %v", tc, img, oc, oy, ox, got, s)
						}
					}
				}
			}
		}
	}
}

func TestConv2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ in, out, k, stride, pad, groups int }{
		{2, 4, 3, 1, 1, 1},
		{4, 4, 3, 2, 1, 2},
		{4, 4, 3, 1, 1, 4},
	} {
		conv := NewConv2d("c", rng, tc.in, tc.out, tc.k, tc.stride, tc.pad, tc.groups)
		x := tensor.New(2, tc.in, 5, 5)
		x.Randn(rng, 1)
		y := conv.Forward(x, true)
		loss := newProjLoss(rng, y.Numel())
		forward := func() float64 { return loss.value(conv.Forward(x, true)) }

		conv.Weight.ZeroGrad()
		dx := conv.Backward(loss.grad(y.Shape()))
		checkGrad(t, "conv.weight", forward, conv.Weight.Data, conv.Weight.Grad, 2e-2)
		checkGrad(t, "conv.input", forward, x.Data, dx.Data, 2e-2)
	}
}

func TestBatchNormNormalizesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm2d("bn", 4)
	x := tensor.New(8, 4, 3, 3)
	x.Randn(rng, 2)
	for i := range x.Data {
		x.Data[i] += 5 // strong shift: eval-mode stats are badly wrong
	}
	y := bn.Forward(x, true)
	// With gamma=1, beta=0 each channel of y must be ~N(0,1) over the batch.
	n, c, plane := 8, 4, 9
	for ch := 0; ch < c; ch++ {
		var s, s2 float64
		for img := 0; img < n; img++ {
			for i := 0; i < plane; i++ {
				v := float64(y.At(img, ch, i/3, i%3))
				s += v
				s2 += v * v
			}
		}
		cnt := float64(n * plane)
		mean, variance := s/cnt, s2/cnt-(s/cnt)*(s/cnt)
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d: mean %.5f var %.5f", ch, mean, variance)
		}
	}
	// Running stats must have moved toward the batch stats.
	if bn.RunningMean[0] < 0.4 {
		t.Fatalf("running mean not updated: %v", bn.RunningMean[0])
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bn := NewBatchNorm2d("bn", 2)
	bn.RunningMean[0], bn.RunningVar[0] = 3, 4
	x := tensor.New(1, 2, 2, 2)
	x.Randn(rng, 1)
	y := bn.Forward(x, false)
	want := (x.At(0, 0, 0, 0) - 3) / float32(math.Sqrt(4+1e-5))
	if math.Abs(float64(y.At(0, 0, 0, 0)-want)) > 1e-5 {
		t.Fatalf("eval BN: got %v want %v", y.At(0, 0, 0, 0), want)
	}
}

func TestBatchNormUseBatchStatsFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bn := NewBatchNorm2d("bn", 2)
	x := tensor.New(4, 2, 2, 2)
	x.Randn(rng, 1)
	for i := range x.Data {
		x.Data[i] += 10
	}
	bn.UseBatchStats = true
	y := bn.Forward(x, false) // train=false, but flag forces batch stats
	if m := y.Mean(); math.Abs(m) > 1e-4 {
		t.Fatalf("UseBatchStats should normalize the batch; mean = %v", m)
	}
}

func TestBatchNormGradientsBatchMode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bn := NewBatchNorm2d("bn", 3)
	bn.Gamma.Data[1], bn.Beta.Data[2] = 1.5, -0.5
	x := tensor.New(4, 3, 2, 2)
	x.Randn(rng, 1)
	y := bn.Forward(x, true)
	loss := newProjLoss(rng, y.Numel())
	forward := func() float64 { return loss.value(bn.Forward(x, true)) }
	bn.Gamma.ZeroGrad()
	bn.Beta.ZeroGrad()
	// Freeze running stats updates' effect on the check by reloading them.
	rm, rv := append([]float32(nil), bn.RunningMean...), append([]float32(nil), bn.RunningVar...)
	restore := func() { copy(bn.RunningMean, rm); copy(bn.RunningVar, rv) }
	dx := bn.Backward(loss.grad(y.Shape()))
	restore()
	wrapped := func() float64 { defer restore(); return forward() }
	checkGrad(t, "bn.gamma", wrapped, bn.Gamma.Data, bn.Gamma.Grad, 2e-2)
	checkGrad(t, "bn.beta", wrapped, bn.Beta.Data, bn.Beta.Grad, 2e-2)
	checkGrad(t, "bn.input", wrapped, x.Data, dx.Data, 3e-2)
}

func TestBatchNormGradientsEvalMode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2d("bn", 2)
	bn.RunningMean[0], bn.RunningVar[1] = 0.5, 2
	x := tensor.New(2, 2, 3, 3)
	x.Randn(rng, 1)
	y := bn.Forward(x, false)
	loss := newProjLoss(rng, y.Numel())
	forward := func() float64 { return loss.value(bn.Forward(x, false)) }
	bn.Gamma.ZeroGrad()
	bn.Beta.ZeroGrad()
	dx := bn.Backward(loss.grad(y.Shape()))
	checkGrad(t, "bn.eval.gamma", forward, bn.Gamma.Data, bn.Gamma.Grad, 2e-2)
	checkGrad(t, "bn.eval.beta", forward, bn.Beta.Data, bn.Beta.Grad, 2e-2)
	checkGrad(t, "bn.eval.input", forward, x.Data, dx.Data, 2e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU("relu")
	x := tensor.FromSlice([]float32{-1, 0, 2, 5}, 1, 4)
	y := r.Forward(x, false)
	want := []float32{0, 0, 2, 5}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU[%d] = %v", i, y.Data[i])
		}
	}
	g := r.Backward(tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 4))
	wantG := []float32{0, 0, 1, 1}
	for i := range wantG {
		if g.Data[i] != wantG[i] {
			t.Fatalf("dReLU[%d] = %v", i, g.Data[i])
		}
	}
}

func TestReLU6Caps(t *testing.T) {
	r := NewReLU6("relu6")
	x := tensor.FromSlice([]float32{-1, 3, 6, 9}, 1, 4)
	y := r.Forward(x, false)
	want := []float32{0, 3, 6, 6}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("ReLU6[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	g := r.Backward(tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 4))
	wantG := []float32{0, 1, 0, 0}
	for i := range wantG {
		if g.Data[i] != wantG[i] {
			t.Fatalf("dReLU6[%d] = %v, want %v", i, g.Data[i], wantG[i])
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	lin := NewLinear("fc", rng, 6, 4)
	x := tensor.New(3, 6)
	x.Randn(rng, 1)
	y := lin.Forward(x, true)
	loss := newProjLoss(rng, y.Numel())
	forward := func() float64 { return loss.value(lin.Forward(x, true)) }
	lin.Weight.ZeroGrad()
	lin.Bias.ZeroGrad()
	dx := lin.Backward(loss.grad(y.Shape()))
	checkGrad(t, "fc.weight", forward, lin.Weight.Data, lin.Weight.Grad, 2e-2)
	checkGrad(t, "fc.bias", forward, lin.Bias.Data, lin.Bias.Grad, 2e-2)
	checkGrad(t, "fc.input", forward, x.Data, dx.Data, 2e-2)
}

func TestGlobalAvgPool(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 1, 2, 2, 2)
	p := NewGlobalAvgPool("gap")
	y := p.Forward(x, false)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 10 {
		t.Fatalf("gap = %v", y.Data)
	}
	dx := p.Backward(tensor.FromSlice([]float32{4, 8}, 1, 2))
	if dx.At(0, 0, 0, 0) != 1 || dx.At(0, 1, 1, 1) != 2 {
		t.Fatalf("gap backward = %v", dx.Data)
	}
}

func TestAvgPool2d(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := NewAvgPool2d("ap", 2)
	y := p.Forward(x, false)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("avgpool[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
	dx := p.Backward(tensor.FromSlice([]float32{4, 4, 4, 4}, 1, 1, 2, 2))
	for _, v := range dx.Data {
		if v != 1 {
			t.Fatalf("avgpool backward = %v", dx.Data)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := NewFlatten("flat")
	x := tensor.New(2, 3, 4, 4)
	x.Randn(rng, 1)
	y := f.Forward(x, false)
	if y.NDim() != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	back := f.Backward(y)
	if !back.SameShape(x) {
		t.Fatalf("flatten backward shape %v", back.Shape())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := tensor.New(5, 7)
	x.Randn(rng, 3)
	p := Softmax(x)
	for r := 0; r < 5; r++ {
		s := 0.0
		for c := 0; c < 7; c++ {
			v := p.At(r, c)
			if v < 0 || v > 1 {
				t.Fatalf("p[%d,%d] = %v out of range", r, c, v)
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, s)
		}
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(4, 5)
	x.Randn(rng, 1)
	labels := []int{0, 2, 4, 1}
	_, grad := CrossEntropy(x, labels)
	forward := func() float64 { l, _ := CrossEntropy(x, labels); return l }
	checkGrad(t, "xent", forward, x.Data, grad.Data, 2e-2)
}

func TestMeanEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(4, 6)
	x.Randn(rng, 1)
	_, grad := MeanEntropy(x)
	forward := func() float64 { l, _ := MeanEntropy(x); return l }
	checkGrad(t, "entropy", forward, x.Data, grad.Data, 2e-2)
}

func TestEntropyBounds(t *testing.T) {
	// Uniform logits → max entropy ln(C); a huge single logit → ~0.
	c := 8
	uni := tensor.New(2, c)
	h, _ := MeanEntropy(uni)
	if math.Abs(h-math.Log(float64(c))) > 1e-5 {
		t.Fatalf("uniform entropy = %v, want %v", h, math.Log(float64(c)))
	}
	peak := tensor.New(1, c)
	peak.Data[3] = 50
	h2, _ := MeanEntropy(peak)
	if h2 > 1e-4 {
		t.Fatalf("peaked entropy = %v, want ~0", h2)
	}
	if h2 < 0 {
		t.Fatalf("entropy must be nonnegative, got %v", h2)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)
	if a := Accuracy(logits, []int{0, 1}); a != 1 {
		t.Fatalf("accuracy = %v", a)
	}
	if a := Accuracy(logits, []int{1, 1}); a != 0.5 {
		t.Fatalf("accuracy = %v", a)
	}
}

func TestSequentialBackwardThroughStack(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq := NewSequential("net",
		NewConv2d("c1", rng, 2, 3, 3, 1, 1, 1),
		NewBatchNorm2d("bn1", 3),
		NewReLU("r1"),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", rng, 3, 4),
	)
	x := tensor.New(3, 2, 4, 4)
	x.Randn(rng, 1)
	labels := []int{0, 1, 2}
	logits := seq.Forward(x, true)
	if logits.Dim(0) != 3 || logits.Dim(1) != 4 {
		t.Fatalf("bad logits shape %v", logits.Shape())
	}
	_, grad := CrossEntropy(logits, labels)
	ZeroGrads(seq)
	dx := seq.Backward(grad)
	if !dx.SameShape(x) {
		t.Fatalf("dx shape %v", dx.Shape())
	}
	// All parameters should have received some gradient.
	for _, p := range CollectParams(seq) {
		nonzero := false
		for _, g := range p.Grad {
			if g != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Fatalf("param %s got zero gradient", p.Name)
		}
	}
}

func TestWalkAndBatchNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	inner := NewSequential("inner", NewBatchNorm2d("bn2", 4))
	seq := NewSequential("outer", NewConv2d("c", rng, 3, 4, 3, 1, 1, 1), NewBatchNorm2d("bn1", 4), inner)
	var names []string
	Walk(seq, func(l Layer) { names = append(names, l.Name()) })
	if len(names) != 5 {
		t.Fatalf("walk visited %v", names)
	}
	bns := BatchNorms(seq)
	if len(bns) != 2 || bns[0].Name() != "bn1" || bns[1].Name() != "bn2" {
		t.Fatalf("BatchNorms = %v", bns)
	}
}
