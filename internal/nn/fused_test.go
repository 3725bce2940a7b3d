package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

// bnMode is one way BatchNorm2d picks its statistics.
type bnMode struct {
	name  string
	train bool
	setup func(*BatchNorm2d)
}

var bnModes = []bnMode{
	{"train", true, func(*BatchNorm2d) {}},
	{"UseBatchStats", false, func(b *BatchNorm2d) { b.UseBatchStats = true }},
	{"running", false, func(*BatchNorm2d) {}},
}

// The rectifiers a BatchNorm may end in.
var (
	relu  = tensor.Rect{On: true}
	relu6 = tensor.Rect{On: true, Cap: 6}
)

// rectRef is the scalar reference the rectifier is held to, as tensor.Rect
// documents it: max(0, v), clamped to Cap when there is one, with NaN
// rectifying to 0 and −0 to +0. Off, it is the identity.
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

// rectGradRef is the reference's gradient, its gate taken from the output
// out: dy where out lies strictly inside (0, Cap), +0 elsewhere.
func rectGradRef(dy, out float32, r tensor.Rect) float32 {
	if !r.On || out > 0 && (r.Cap == 0 || out < r.Cap) {
		return dy
	}
	return 0
}

// fusedCase builds a BatchNorm ending in act with non-trivial parameters
// and statistics and the tensors of one forward/backward. 5×5 planes are
// no whole number of vectors: the AVX-512 routines mask their remainder,
// and an AVX2-only CPU hands them to the generic twins.
func fusedCase(seed int64, mode bnMode, act tensor.Rect) (bn *BatchNorm2d, x, res, grad *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	bn = NewBatchNorm2d("bn", 6, act)
	for c := 0; c < bn.C; c++ {
		bn.Gamma.Data[c] = float32(1 + rng.NormFloat64())
		bn.Beta.Data[c] = float32(rng.NormFloat64())
		bn.RunningMean[c] = float32(rng.NormFloat64() * 0.3)
		bn.RunningVar[c] = float32(0.5 + rng.Float64())
	}
	mode.setup(bn)
	x, res, grad = tensor.New(5, 6, 5, 5), tensor.New(5, 6, 5, 5), tensor.New(5, 6, 5, 5)
	x.Randn(rng, 2)
	res.Randn(rng, 3) // wide enough that ReLU6 clamps some sums
	grad.Randn(rng, 1)
	return bn, x, res, grad
}

type fusedResult struct {
	y, dx, dres, gamma, beta, runMean, runVar []float32
}

func (a fusedResult) diff(b fusedResult) string {
	for _, f := range []struct {
		name string
		a, b []float32
	}{{"output", a.y, b.y}, {"dx", a.dx, b.dx}, {"dres", a.dres, b.dres}, {"gamma grad", a.gamma, b.gamma},
		{"beta grad", a.beta, b.beta}, {"running mean", a.runMean, b.runMean}, {"running var", a.runVar, b.runVar}} {
		if !float32BitsEqual(f.a, f.b) {
			return f.name
		}
	}
	return ""
}

func snapshot(bn *BatchNorm2d, y, dx, dres *tensor.Tensor) fusedResult {
	r := fusedResult{y: y.Data, dx: dx.Data, gamma: bn.Gamma.Grad, beta: bn.Beta.Grad,
		runMean: bn.RunningMean, runVar: bn.RunningVar}
	if dres != nil {
		r.dres = dres.Data
	}
	return r
}

// addRef is a residual sum outside any layer: y += x, a scalar float32
// add per element, one rounding each.
func addRef(y, x *tensor.Tensor) {
	for i, v := range x.Data {
		y.Data[i] += v
	}
}

// TestFusedMatchesLayerSequenceBitwise is the fused pass's contract: for
// every statistics mode, rectifier and residual, at 1 and 8 workers, a
// BatchNorm's ForwardFused/BackwardFused produce the bits of the same
// BatchNorm without a rectifier, then a scalar add, then the scalar
// rectifier, and back through the rectifier's gate read from the output,
// then that BatchNorm's Backward, each a pass of its own.
func TestFusedMatchesLayerSequenceBitwise(t *testing.T) {
	defer parallel.SetWorkers(0)
	acts := map[string]tensor.Rect{"none": {}, "relu": relu, "relu6": relu6}
	for _, mode := range bnModes {
		for actName, act := range acts {
			for _, withRes := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/res=%v", mode.name, actName, withRes)
				var byWorkers []fusedResult
				for _, workers := range []int{1, 8} {
					parallel.SetWorkers(workers)

					bn, x, res, grad := fusedCase(41, mode, tensor.Rect{})
					y := bn.Forward(x, mode.train)
					if withRes {
						addRef(y, res)
					}
					dsum := tensor.New(grad.Shape()...)
					for i, v := range y.Data {
						y.Data[i] = rectRef(v, act)
						dsum.Data[i] = rectGradRef(grad.Data[i], y.Data[i], act)
					}
					var dres *tensor.Tensor
					if withRes {
						dres = dsum
					}
					want := snapshot(bn, y, bn.Backward(dsum), dres)

					bn, x, res, grad = fusedCase(41, mode, act)
					if !withRes {
						res = nil
					}
					y = bn.ForwardFused(x, res, mode.train)
					dx, dres := bn.BackwardFused(grad, nil)
					got := snapshot(bn, y, dx, dres)

					if d := got.diff(want); d != "" {
						t.Errorf("%s, %d workers: fused %s differs from the layer sequence", name, workers, d)
					}
					saved := int64(x.Numel()) // PyTorch saves the input, and the output behind a ReLU
					if act.On {
						saved *= 2
					}
					if sp := bn.Spec(); sp.Rectifies != act.On || sp.SavedElems != saved {
						t.Errorf("%s: Spec %+v does not record the rectifier", name, sp)
					}
					byWorkers = append(byWorkers, got)
				}
				if d := byWorkers[0].diff(byWorkers[1]); d != "" {
					t.Errorf("%s: fused %s differs between 1 and 8 workers", name, d)
				}
			}
		}
	}
}

// TestSequentialInferNormalizesInPlace: under Attach(…, infer) a
// Sequential runs a BatchNorm whose input the chain made in place, and a
// BatchNorm at the chain's input, which is the caller's, not; either way
// the output has the bits of a pass that keeps every activation.
func TestSequentialInferNormalizesInPlace(t *testing.T) {
	net := buildParityNet(7)
	net.layers = append([]Layer{NewBatchNorm2d("bn0", 3, relu6)}, net.layers...)
	x := parityInput(11)
	want := net.Forward(x, false)

	Attach(net, new(tensor.Arena), true)
	x0 := append([]float32(nil), x.Data...)
	got := net.Forward(x, false)
	if !float32BitsEqual(got.Data, want.Data) {
		t.Fatal("the in-place forward differs from the one that keeps its activations")
	}
	if !float32BitsEqual(x.Data, x0) {
		t.Fatal("a BatchNorm wrote over the chain's input")
	}
	for _, l := range net.layers {
		if bn, ok := l.(*BatchNorm2d); ok && bn.InPlace() != (bn.Name() != "bn0") {
			t.Errorf("%s: in place = %v", bn.Name(), bn.InPlace())
		}
	}
}

// TestFusedGradientCheck runs the numeric-gradient check through the fused
// path: γ, β, the input and the residual, with batch statistics, for both
// rectifiers. The residual is nudged so that no pre-activation sits within
// finite-difference reach of a kink.
func TestFusedGradientCheck(t *testing.T) {
	for name, act := range map[string]tensor.Rect{"relu": relu, "relu6": relu6} {
		rng := rand.New(rand.NewSource(17))
		bn, linear := NewBatchNorm2d("bn", 3, act), NewBatchNorm2d("bn", 3, tensor.Rect{})
		bn.Gamma.Data[1], bn.Beta.Data[2] = 1.5, -0.5
		CopyState(linear, bn)
		x, res := tensor.New(4, 3, 2, 2), tensor.New(4, 3, 2, 2)
		x.Randn(rng, 1)
		res.Randn(rng, 2)
		pre := linear.Forward(x, true) // what the rectifier sees, less the residual
		addRef(pre, res)
		for i, v := range pre.Data {
			for _, kink := range []float32{0, act.Cap} {
				if d := v - kink; d > -0.4 && d < 0.4 {
					res.Data[i] += 0.8
				}
			}
		}
		rm, rv := append([]float32(nil), bn.RunningMean...), append([]float32(nil), bn.RunningVar...)
		restore := func() { copy(bn.RunningMean, rm); copy(bn.RunningVar, rv) }
		restore()

		y := bn.ForwardFused(x, res, true)
		loss := newProjLoss(rng, y.Numel())
		forward := func() float64 {
			defer restore()
			return loss.value(bn.ForwardFused(x, res, true))
		}
		bn.Gamma.ZeroGrad()
		bn.Beta.ZeroGrad()
		dx, dres := bn.BackwardFused(loss.grad(y.Shape()), nil)
		restore()
		checkGrad(t, name+".gamma", forward, bn.Gamma.Data, bn.Gamma.Grad, 2e-2)
		checkGrad(t, name+".beta", forward, bn.Beta.Data, bn.Beta.Grad, 2e-2)
		checkGrad(t, name+".input", forward, x.Data, dx.Data, 3e-2)
		checkGrad(t, name+".residual", forward, res.Data, dres.Data, 2e-2)
	}
}

// TestNoLayerOwnsAnActivationSizedBuffer: after a forward and a backward,
// no BatchNorm2d holds a slice as large as an activation — x̂ and the
// rectifier's gate are recomputed, and what the layer keeps are references
// to tensors that exist anyway. (Before the fused kernels BatchNorm2d
// owned xhat and a stand-alone ReLU a []bool mask.)
func TestNoLayerOwnsAnActivationSizedBuffer(t *testing.T) {
	net := buildParityNet(7)
	x := parityInput(11)
	net.Backward(net.Forward(x, true))

	smallest := x.Numel() // every activation here has at least the input's elements
	checked := 0
	Walk(net, func(l Layer) {
		if _, ok := l.(*BatchNorm2d); !ok {
			return
		}
		checked++
		v := reflect.ValueOf(l).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice && f.Cap() >= smallest {
				t.Errorf("%s owns %s: a slice of capacity %d (activations start at %d elements)",
					l.Name(), v.Type().Field(i).Name, f.Cap(), smallest)
			}
		}
	})
	if checked != 2 {
		t.Fatalf("checked %d layers, want 2 BatchNorms", checked)
	}
}

func wantPanic(t *testing.T, what, substr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s: no panic", what)
		} else if !strings.Contains(fmt.Sprint(r), substr) {
			t.Errorf("%s: panic %q does not name %q", what, r, substr)
		}
	}()
	fn()
}

// TestBackwardBeforeForwardPanics: BatchNorm2d used to return an empty or
// stale gradient here; like Conv2d it now says which layer.
func TestBackwardBeforeForwardPanics(t *testing.T) {
	g := tensor.New(1, 2, 2, 2)
	for _, act := range []tensor.Rect{{}, relu} {
		bn := NewBatchNorm2d("bnX", 2, act)
		wantPanic(t, "BatchNorm2d", "bnX: Backward before Forward", func() { bn.Backward(g) })
		bn.Forward(g, false)
		if dx := bn.Backward(g); !dx.SameShape(g) {
			t.Errorf("backward after a forward returned shape %v", dx.Shape())
		}
	}
}

// TestForwardInPlaceMatchesAndRefusesBackward: ForwardFusedInPlace writes
// ForwardFused's bits over its input, in every statistics mode, with and
// without a rectifier and a residual, at 1 and 8 workers; Backward then
// refuses by name, since the saved input holds the output, until a forward
// that is not in place.
func TestForwardInPlaceMatchesAndRefusesBackward(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, mode := range bnModes {
		for _, withAct := range []bool{false, true} {
			for _, withRes := range []bool{false, true} {
				for _, workers := range []int{1, 8} {
					parallel.SetWorkers(workers)
					name := fmt.Sprintf("%s/act=%v/res=%v/workers=%d", mode.name, withAct, withRes, workers)
					var act tensor.Rect
					if withAct {
						act = relu6
					}
					bn, x, res, grad := fusedCase(43, mode, act)
					if !withRes {
						res = nil
					}
					want := bn.ForwardFused(x, res, mode.train)
					wantMean := append([]float32(nil), bn.RunningMean...)

					bn, x, res, _ = fusedCase(43, mode, act)
					if !withRes {
						res = nil
					}
					y := bn.ForwardFusedInPlace(x, res, mode.train)
					if &y.Data[0] != &x.Data[0] || !bn.InPlace() {
						t.Fatalf("%s: the result does not share the input's memory", name)
					}
					if !float32BitsEqual(y.Data, want.Data) || !float32BitsEqual(bn.RunningMean, wantMean) {
						t.Errorf("%s: in place differs from ForwardFused", name)
					}
					wantPanic(t, name, "bn: Backward after an in-place forward", func() { bn.Backward(grad) })
					bn.ForwardFused(x, res, mode.train)
					if bn.InPlace() {
						t.Fatalf("%s: a forward that is not in place left the layer marked in place", name)
					}
					bn.Backward(grad)
				}
			}
		}
	}
}

// TestPoolIsProfiled: a pool that records no interval leaks its time out
// of the attributed share.
func TestPoolIsProfiled(t *testing.T) {
	x := tensor.New(2, 3, 4, 4)
	x.Randn(rand.New(rand.NewSource(1)), 1)
	l := NewGlobalAvgPool("gap")
	if !StartProfiling() {
		t.Skip("another profiler is active")
	}
	l.Backward(l.Forward(x, true))
	got := StopProfiling()
	if got.FwCalls[KindPool] != 1 || got.BwCalls[KindPool] != 1 {
		t.Errorf("%d forward and %d backward pool intervals, want 1 each",
			got.FwCalls[KindPool], got.BwCalls[KindPool])
	}
}

// TestFusedPassIsOneProfilerInterval: the fused pass is credited to the
// BatchNorm as one interval per direction, and its rectifier records none.
func TestFusedPassIsOneProfilerInterval(t *testing.T) {
	bn, x, res, grad := fusedCase(5, bnModes[0], relu)
	if !StartProfiling() {
		t.Skip("another profiler is active")
	}
	bn.ForwardFused(x, res, true)
	bn.BackwardFused(grad, nil)
	got := StopProfiling()
	if got.FwCalls[KindBN] != 1 || got.BwCalls[KindBN] != 1 || got.FwCalls[KindAct]+got.BwCalls[KindAct] != 0 {
		t.Errorf("intervals: bn %d/%d, act %d/%d; want 1/1 and 0/0",
			got.FwCalls[KindBN], got.BwCalls[KindBN], got.FwCalls[KindAct], got.BwCalls[KindAct])
	}
	if math.IsNaN(got.Total()) || got.Total() <= 0 {
		t.Errorf("profiled total %v", got.Total())
	}
}

// TestBackwardRejectsAGradientOfAnotherShape: Conv2d and Linear size what
// they write by the forward's batch and slice grad by the forward's
// geometry, so a gradient with fewer images would leave the tail of an
// arena-drawn dx holding the previous pass's data and one with another
// plane would be read across image boundaries; both say which layer.
func TestBackwardRejectsAGradientOfAnotherShape(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	conv := NewConv2d("convX", rng, 3, 4, 3, 2, 1, 1)
	conv.Forward(tensor.New(2, 3, 8, 8), false) // → [2, 4, 4, 4]
	fc := NewLinear("fcX", rng, 5, 3)
	fc.Forward(tensor.New(2, 5), false)
	for _, tc := range []struct {
		what  string
		layer Layer
		grad  []int
	}{
		{"conv, short batch", conv, []int{1, 4, 4, 4}},
		{"conv, wrong plane", conv, []int{2, 4, 8, 2}},
		{"conv, wrong channels", conv, []int{2, 3, 4, 4}},
		{"conv, flattened", conv, []int{2, 64}},
		{"linear, short batch", fc, []int{1, 3}},
		{"linear, wrong width", fc, []int{2, 5}},
	} {
		wantPanic(t, tc.what, tc.layer.Name()+": unexpected input shape", func() { tc.layer.Backward(tensor.New(tc.grad...)) })
	}
	if dx := conv.Backward(tensor.New(2, 4, 4, 4)); dx.Dim(0) != 2 || dx.Dim(2) != 8 {
		t.Errorf("conv Backward over the forward's output shape returned %v", dx.Shape())
	}
	if dx := fc.Backward(tensor.New(2, 3)); dx.Dim(0) != 2 || dx.Dim(1) != 5 {
		t.Errorf("linear Backward over the forward's output shape returned %v", dx.Shape())
	}
}

// TestConvResidualOperandMatchesSeparateAdd holds a conv's residual
// operands bitwise to Forward or Backward followed by a scalar add, at 1, 2
// and 8 workers, over stride-1 and strided geometries: the forward sum,
// and the dX sum with res given on the stride grid — added to the residue
// output that lies there, before un-staging, and nowhere else, which
// matches a dense add of the grid's values because dX off the grid is
// never −0. BackwardSampled of a strided 1×1 conv is Backward on that grid,
// and zero off it; a conv with no residue on the grid refuses a res.
func TestConvResidualOperandMatchesSeparateAdd(t *testing.T) {
	defer parallel.SetWorkers(0)
	same := float32BitsEqual
	geoms := []struct{ k, stride, pad, hw int }{
		{3, 1, 1, 8}, {1, 1, 0, 8}, {3, 2, 1, 8}, {3, 2, 1, 9}, {1, 2, 0, 9}, {2, 2, 0, 8}, {5, 3, 2, 10}, {1, 3, 0, 7}, {1, 2, 1, 8},
	}
	for _, geo := range geoms {
		for _, workers := range []int{1, 2, 8} {
			parallel.SetWorkers(workers)
			at := fmt.Sprintf("k%d s%d p%d %d×%d, %d workers", geo.k, geo.stride, geo.pad, geo.hw, geo.hw, workers)
			rng := rand.New(rand.NewSource(31))
			c := NewConv2d("c", rng, 4, 8, geo.k, geo.stride, geo.pad, 1)
			x := tensor.New(3, 4, geo.hw, geo.hw)
			x.Randn(rng, 1)
			y := c.Forward(x, true)
			res := tensor.New(y.Shape()...)
			res.Randn(rng, 1)
			want := y.Clone()
			addRef(want, res)
			if got := c.ForwardFused(x, res, true); !same(got.Data, want.Data) {
				t.Fatalf("%s: ForwardFused differs from Forward and a separate add", at)
			}
			g := tensor.New(y.Shape()...)
			g.Randn(rng, 1)
			s, h := geo.stride, geo.hw
			grid := tensor.New(3, 4, (h+s-1)/s, (h+s-1)/s)
			grid.Randn(rng, 1)
			dx := c.Backward(g)
			want = dx.Clone()
			rows := grid.Dim(2)
			for i, v := range grid.Data { // a dense add of the grid's values
				ic, gy, gx := i/(rows*rows), i/rows%rows, i%rows
				want.Data[(ic*h+gy*s)*h+gx*s] += v
			}
			_, ok := tensor.NewConvGradPlan(c.Spec().Conv).GridResidue()
			if s > 1 && !ok {
				wantPanic(t, at+": BackwardFused with no residue on the grid", "stride grid", func() { c.BackwardFused(g, grid) })
			} else if got := c.BackwardFused(g, grid); !same(got.Data, want.Data) {
				t.Fatalf("%s: BackwardFused differs from Backward and a separate add", at)
			}
			if geo.k != 1 || geo.pad != 0 {
				continue
			}
			sampled := c.BackwardSampled(g)
			for i := range dx.Data {
				ic, yy, xx := i/(h*h), i/h%h, i%h
				v := float32(0)
				if yy%s == 0 && xx%s == 0 {
					v = sampled.At(ic/4, ic%4, yy/s, xx/s)
				}
				if math.Float32bits(dx.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%s: Backward at %d is %v, BackwardSampled on the grid gives %v", at, i, dx.Data[i], v)
				}
			}
		}
	}
}
