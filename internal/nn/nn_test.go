package nn

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"edgetta/internal/parallel"
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

// convGeom is one convolution of the reference table, on images of h×w.
type convGeom struct{ in, out, groups, h, w, k, stride, pad int }

// convGeometries is the reference table: stride {1, 2, 3} × K {1, 3, 5} ×
// pad {0, 1, K−1, K, K+1} × {ungrouped, two groups, depthwise}, on a 7×9
// plane and, under K = 5, a 4×4 one. K = 1 at stride 2 and 3 is K < stride,
// where some positions of dX are reached by no tap.
func convGeometries() []convGeom {
	pads := map[int][]int{1: {0, 1, 2}, 3: {0, 1, 2, 3, 4}, 5: {0, 1, 4, 5, 6}}
	var gs []convGeom
	for _, stride := range []int{1, 2, 3} {
		for _, k := range []int{1, 3, 5} {
			for _, pad := range pads[k] {
				for _, ch := range [][3]int{{3, 5, 1}, {4, 6, 2}, {4, 4, 4}} {
					for _, hw := range [][2]int{{7, 9}, {4, 4}} {
						if hw[0] == 4 && k != 5 || hw[0]+2*pad < k {
							continue
						}
						gs = append(gs, convGeom{ch[0], ch[1], ch[2], hw[0], hw[1], k, stride, pad})
					}
				}
			}
		}
	}
	return gs
}

// naiveConv computes in float64, from the definition, conv's output on x
// and, for the output gradient g, its input and weight gradients.
func naiveConv(c *Conv2d, x, g *tensor.Tensor) (y, dx, dw []float64) {
	n, h, w, oh, ow := x.Dim(0), x.Dim(2), x.Dim(3), g.Dim(2), g.Dim(3)
	inCg, outCg := c.InC/c.Groups, c.OutC/c.Groups
	y, dx, dw = make([]float64, g.Numel()), make([]float64, x.Numel()), make([]float64, len(c.Weight.Data))
	for img := 0; img < n; img++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					yi := ((img*c.OutC+oc)*oh+oy)*ow + ox
					for ic := 0; ic < inCg; ic++ {
						for ky := 0; ky < c.K; ky++ {
							for kx := 0; kx < c.K; kx++ {
								iy, ix := oy*c.Stride-c.Pad+ky, ox*c.Stride-c.Pad+kx
								if iy < 0 || iy >= h || ix < 0 || ix >= w {
									continue
								}
								xi := ((img*c.InC+oc/outCg*inCg+ic)*h+iy)*w + ix
								wi := ((oc*inCg+ic)*c.K+ky)*c.K + kx
								xv, wv, gv := float64(x.Data[xi]), float64(c.Weight.Data[wi]), float64(g.Data[yi])
								y[yi] += xv * wv
								dx[xi] += gv * wv
								dw[wi] += gv * xv
							}
						}
					}
				}
			}
		}
	}
	return y, dx, dw
}

// offReference returns the index of the first element of got farther than
// 1e-5·(1+|ref|) from ref, -1 when there is none.
func offReference(got []float32, ref []float64) int {
	for i, v := range got {
		if math.Abs(float64(v)-ref[i]) > 1e-5*(1+math.Abs(ref[i])) {
			return i
		}
	}
	return -1
}

// checkConvAgainstNaive runs conv forward and backward on x under the
// output gradient g at each worker count, and reports a result that
// differs between worker counts or from naiveConv. It returns the weight
// gradient.
func checkConvAgainstNaive(t *testing.T, conv *Conv2d, x, g *tensor.Tensor, workers ...int) []float32 {
	t.Helper()
	defer parallel.SetWorkers(0)
	names := [3]string{"output", "input gradient", "weight gradient"}
	var first [3][]float32
	for i, n := range workers {
		parallel.SetWorkers(n)
		conv.Weight.ZeroGrad()
		y := conv.Forward(x, true)
		got := [3][]float32{y.Data, conv.Backward(g).Data, append([]float32(nil), conv.Weight.Grad...)}
		if i == 0 {
			first = got
			continue
		}
		for j := range got {
			if !float32BitsEqual(got[j], first[j]) {
				t.Errorf("%s: %s differs between %d and %d workers", conv.Name(), names[j], workers[0], n)
			}
		}
	}
	y, dx, dw := naiveConv(conv, x, g)
	for j, ref := range [][]float64{y, dx, dw} {
		if i := offReference(first[j], ref); i >= 0 {
			t.Errorf("%s: %s[%d] = %v, naive reference %v", conv.Name(), names[j], i, first[j][i], ref[i])
		}
	}
	return first[2]
}

// goldenConvDW is the FNV-1a hash of the weight gradients over
// convGeometries, recorded on amd64 when dW still ran as im2col strips
// multiplied by dY: lowering one row at a time must not move one bit.
const goldenConvDW = 0xc4c622414e2485ca

// TestConv2dMatchesNaive holds every shape of the reference table — its
// forward, input gradient and weight gradient — to the float64 definition,
// bit-identical at one and eight workers, with the weight gradients pinned
// to goldenConvDW.
func TestConv2dMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := fnv.New64a()
	for _, gm := range convGeometries() {
		conv := NewConv2d(fmt.Sprintf("%+v", gm), rng, gm.in, gm.out, gm.k, gm.stride, gm.pad, gm.groups)
		x := tensor.New(2, gm.in, gm.h, gm.w)
		x.Randn(rng, 1)
		g := tensor.New(2, gm.out, (gm.h+2*gm.pad-gm.k)/gm.stride+1, (gm.w+2*gm.pad-gm.k)/gm.stride+1)
		g.Randn(rng, 1)
		hashFloats(h, checkConvAgainstNaive(t, conv, x, g, 1, 8))
	}
	if got := h.Sum64(); runtime.GOARCH == "amd64" && got != goldenConvDW {
		t.Errorf("weight gradients hash to %#x, want %#x", got, uint64(goldenConvDW))
	}
}

// FuzzConvGrad draws a bounded geometry from the fuzz input — groups
// dividing both channel counts of at most 8, planes up to 12×12, K ≤ 5,
// stride ≤ 3, pad ≤ K+1 — and holds the forward, input gradient and weight
// gradient to the naive reference. A kernel wider than the padded plane
// must be refused. The seed corpus is testdata/fuzz/FuzzConvGrad.
func FuzzConvGrad(f *testing.F) {
	f.Fuzz(func(t *testing.T, groups, inCg, outCg, h, w, k, stride, pad uint8) {
		gm := convGeom{groups: 1 + int(groups)%8, h: 1 + int(h)%12, w: 1 + int(w)%12, k: 1 + int(k)%5, stride: 1 + int(stride)%3}
		gm.in, gm.out = gm.groups*(1+int(inCg)%(8/gm.groups)), gm.groups*(1+int(outCg)%(8/gm.groups))
		gm.pad = int(pad) % (gm.k + 2)
		rng := rand.New(rand.NewSource(int64(gm.h*13 + gm.w)))
		conv := NewConv2d(fmt.Sprintf("%+v", gm), rng, gm.in, gm.out, gm.k, gm.stride, gm.pad, gm.groups)
		x := tensor.New(2, gm.in, gm.h, gm.w)
		x.Randn(rng, 1)
		if gm.h+2*gm.pad < gm.k || gm.w+2*gm.pad < gm.k {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: a kernel wider than the padded plane was not refused", gm)
				}
			}()
			conv.Forward(x, true)
			return
		}
		g := tensor.New(2, gm.out, (gm.h+2*gm.pad-gm.k)/gm.stride+1, (gm.w+2*gm.pad-gm.k)/gm.stride+1)
		g.Randn(rng, 1)
		checkConvAgainstNaive(t, conv, x, g, 1, 8)
	})
}

// hashFloats feeds the bits of vs to h.
func hashFloats(h hash.Hash64, vs []float32) {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

func TestConv2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ in, out, k, stride, pad, groups int }{
		{2, 4, 3, 1, 1, 1},
		{4, 4, 3, 2, 1, 2},
		{4, 4, 3, 1, 1, 4},
		{2, 3, 1, 2, 0, 1}, // K < stride
		{2, 2, 3, 3, 4, 2}, // pad > K
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
