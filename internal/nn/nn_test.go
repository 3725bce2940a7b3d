package nn

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
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
// convGeometries, recorded when dW still ran as im2col strips multiplied
// by dY: lowering one row at a time must not move one bit, on any GOARCH.
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
	if got := h.Sum64(); got != goldenConvDW {
		t.Errorf("weight gradients hash to %#x, want %#x", got, uint64(goldenConvDW))
	}
}

// TestConvErrorModel holds the forward and the input gradient of every
// shape of the reference table to the error bound of n products summed in
// float32 (Higham, Accuracy and Stability of Numerical Algorithms, §3.1):
// |ŷ − y| ≤ γₙ·Σᵣ|wᵣxᵣ|, γₙ = nu/(1−nu), u = 2⁻²⁴, where y is the float64
// definition (naiveConv) and n the reduction length, InC/Groups·K² for an
// output and OutC/Groups·⌈K/Stride⌉² for an input-gradient element. It logs
// the worst and the mean ratio |ŷ − y| / γₙΣ|wx| of each, so a change of
// the kernels' arithmetic can be judged against float64 truth, not only
// against itself. (One product rounded once, n = 1, can come within a
// hair of its bound on any kernel, so the worst is close to 1.)
func TestConvErrorModel(t *testing.T) {
	const u = 0x1p-24
	gamma := func(n int) float64 { return float64(n) * u / (1 - float64(n)*u) }
	abs := func(v []float32) []float32 {
		a := make([]float32, len(v))
		for i, x := range v {
			a[i] = float32(math.Abs(float64(x)))
		}
		return a
	}
	rng := rand.New(rand.NewSource(1))
	var worst, sum [2]float64
	var count [2]int
	for _, gm := range convGeometries() {
		conv := NewConv2d(fmt.Sprintf("%+v", gm), rng, gm.in, gm.out, gm.k, gm.stride, gm.pad, gm.groups)
		x := tensor.New(2, gm.in, gm.h, gm.w)
		x.Randn(rng, 1)
		g := tensor.New(2, gm.out, (gm.h+2*gm.pad-gm.k)/gm.stride+1, (gm.w+2*gm.pad-gm.k)/gm.stride+1)
		g.Randn(rng, 1)
		y := append([]float32(nil), conv.Forward(x, true).Data...)
		dx := conv.Backward(g).Data
		yRef, dxRef, _ := naiveConv(conv, x, g)
		w := conv.Weight.Data
		conv.Weight.Data = abs(w)
		yMag, dxMag, _ := naiveConv(conv, tensor.FromSlice(abs(x.Data), x.Shape()...), tensor.FromSlice(abs(g.Data), g.Shape()...))
		conv.Weight.Data = w
		taps := (gm.k + gm.stride - 1) / gm.stride
		n := [2]int{gm.in / gm.groups * gm.k * gm.k, gm.out / gm.groups * taps * taps}
		for j, c := range []struct {
			got      []float32
			ref, mag []float64
		}{{y, yRef, yMag}, {dx, dxRef, dxMag}} {
			for i, v := range c.got {
				diff, bound := math.Abs(float64(v)-c.ref[i]), gamma(n[j])*c.mag[i]
				if !(diff <= bound) {
					t.Errorf("%+v: %s[%d] = %v is %g off the float64 definition, beyond γₙΣ|wx| = %g",
						gm, [2]string{"output", "input gradient"}[j], i, v, diff, bound)
				}
				if bound > 0 {
					worst[j] = max(worst[j], diff/bound)
					sum[j] += diff / bound
					count[j]++
				}
			}
		}
	}
	t.Logf("|ŷ − y| / γₙΣ|wx|: output worst %.4f mean %.4f, input gradient worst %.4f mean %.4f",
		worst[0], sum[0]/float64(count[0]), worst[1], sum[1]/float64(count[1]))
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
	bn := NewBatchNorm2d("bn", 4, tensor.Rect{})
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
	bn := NewBatchNorm2d("bn", 2, tensor.Rect{})
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
	bn := NewBatchNorm2d("bn", 2, tensor.Rect{})
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
	bn := NewBatchNorm2d("bn", 3, tensor.Rect{})
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
	bn := NewBatchNorm2d("bn", 2, tensor.Rect{})
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

// identityBN is a BatchNorm over one channel whose normalize, in running
// mode, is the identity to the bit (mean 0, σ⁻¹ exactly 1, γ 1, β 0; only
// −0 becomes +0, as any rectifier makes it): what it computes is its
// rectifier alone.
func identityBN(act tensor.Rect) *BatchNorm2d {
	bn := NewBatchNorm2d("bn", 1, act)
	bn.Eps = 0
	return bn
}

// checkRectifier holds a BatchNorm's rectifier on x to the scalar
// reference, forward and backward, bit for bit.
func checkRectifier(t *testing.T, act tensor.Rect, x []float32) {
	t.Helper()
	bn := identityBN(act)
	y := bn.Forward(tensor.FromSlice(x, 1, 1, 1, len(x)), false)
	g := tensor.New(y.Shape()...)
	g.Fill(1)
	dx := bn.Backward(g)
	for i, v := range x {
		want := rectRef(v, act)
		if math.Float32bits(y.Data[i]) != math.Float32bits(want) {
			t.Errorf("rect %+v (%v) = %v, want %v", act, v, y.Data[i], want)
		}
		if wantG := rectGradRef(1, want, act); math.Float32bits(dx.Data[i]) != math.Float32bits(wantG) {
			t.Errorf("rect %+v: gradient at %v = %v, want %v", act, v, dx.Data[i], wantG)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	inf := float32(math.Inf(1))
	checkRectifier(t, relu, []float32{-1, 0, 2, 5, float32(math.NaN()), float32(math.Copysign(0, -1)), inf, -inf, 1e-40})
}

func TestReLU6Caps(t *testing.T) {
	inf := float32(math.Inf(1))
	checkRectifier(t, relu6, []float32{-1, 3, 6, 9, math.Nextafter32(6, 0), math.Nextafter32(6, 7), float32(math.NaN()), inf, -inf})
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

// TestGlobalAvgPoolMatchesSequentialSums holds the pool, whose forward
// sums several planes side by side, bitwise to its definition: each
// plane's float32 sum in ascending order from +0, times 1/(H·W), and back,
// every element of a plane its output's gradient times 1/(H·W). Plane
// lengths run 1–70; the plane counts include ones the chain width does
// not divide, and -0, NaN and ±Inf among the values.
func TestGlobalAvgPoolMatchesSequentialSums(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e30}
	value := func() float32 {
		if rng.Intn(40) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return float32(rng.NormFloat64() * 3)
	}
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b) }
	for plane := 1; plane <= 70; plane++ {
		h, w := 1, plane // the pool reads a plane flat
		if plane == 64 {
			h, w = 8, 8
		}
		for _, shape := range [][2]int{{1, 1}, {1, poolChains}, {2, 3}, {3, poolChains + 5}, {2, 2 * poolChains}} {
			n, c := shape[0], shape[1]
			x := tensor.New(n, c, h, w)
			for i := range x.Data {
				x.Data[i] = value()
			}
			p := NewGlobalAvgPool("gap")
			y := p.Forward(x, false)
			inv := 1 / float32(plane)
			for i := 0; i < n*c; i++ {
				s := float32(0)
				for _, v := range x.Data[i*plane : (i+1)*plane] {
					s += v
				}
				if !same(y.Data[i], s*inv) {
					t.Fatalf("%d×%d planes of %d: forward plane %d = %v, sequential sum %v", n, c, plane, i, y.Data[i], s*inv)
				}
			}
			g := tensor.New(n, c)
			for i := range g.Data {
				g.Data[i] = value()
			}
			for i, v := range p.Backward(g).Data {
				if want := g.Data[i/plane] * inv; !same(v, want) {
					t.Fatalf("%d×%d planes of %d: backward element %d = %v, want %v", n, c, plane, i, v, want)
				}
			}
		}
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

func TestSequentialBackwardThroughStack(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq := NewSequential("net",
		NewConv2d("c1", rng, 2, 3, 3, 1, 1, 1),
		NewBatchNorm2d("bn1", 3, relu),
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
	inner := NewSequential("inner", NewBatchNorm2d("bn2", 4, tensor.Rect{}))
	seq := NewSequential("outer", NewConv2d("c", rng, 3, 4, 3, 1, 1, 1), NewBatchNorm2d("bn1", 4, tensor.Rect{}), inner)
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
