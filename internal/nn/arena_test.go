package nn

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/tensor"
)

// TestLayersWriteEveryArenaElement: an arena buffer arrives with whatever
// its last user left, so every layer must write each element of what it
// draws — or clear it first where it accumulates. Each layer runs once on
// an arena, its outputs are filled with NaN and handed back, and the second
// run over those same buffers must be bit-equal to a twin (the same
// constructor, CopyState) that allocates zeroed tensors. The cases are the ones that used to lean on zeroed
// memory or could: the strided and grouped conv backward (a 1×1 stride-2
// dX is three quarters zeros no tap writes; the dW partials accumulate),
// the im2col oracle, a Sequential that releases gradients as it goes.
func TestLayersWriteEveryArenaElement(t *testing.T) {
	defer tensor.SetPacked(tensor.PackedEnabled())
	rng := rand.New(rand.NewSource(41))
	conv := func(in, out, k, stride, pad, groups int) func(*rand.Rand) Layer {
		return func(rng *rand.Rand) Layer { return NewConv2d("c", rng, in, out, k, stride, pad, groups) }
	}
	chain := func(rng *rand.Rand) Layer {
		return NewSequential("chain",
			NewConv2d("c1", rng, 3, 4, 3, 2, 1, 1), NewBatchNorm2d("bn1", 4, relu),
			NewConv2d("c2", rng, 4, 4, 3, 1, 1, 2), NewBatchNorm2d("bn2", 4, relu6),
			NewGlobalAvgPool("gap"), NewLinear("fc", rng, 4, 3))
	}
	for _, tc := range []struct {
		name   string
		build  func(*rand.Rand) Layer
		in     []int
		oracle bool
	}{
		{"conv stride 1", conv(3, 5, 3, 1, 1, 1), []int{2, 3, 7, 7}, false},
		{"conv stride 2", conv(3, 5, 3, 2, 1, 1), []int{2, 3, 7, 7}, false},
		{"conv grouped", conv(4, 6, 3, 1, 1, 2), []int{2, 4, 5, 5}, false},
		{"conv 1×1 stride 2", conv(3, 5, 1, 2, 0, 1), []int{2, 3, 8, 8}, false},
		{"conv 3×3 stride 3 pad 0", conv(3, 5, 3, 3, 0, 1), []int{2, 3, 8, 7}, false},
		{"conv 1×1 pad 1", conv(3, 5, 1, 1, 1, 1), []int{2, 3, 6, 6}, false},
		{"conv depthwise stride 2", conv(4, 4, 3, 2, 1, 4), []int{2, 4, 7, 7}, false},
		{"conv on the im2col oracle", conv(3, 5, 3, 1, 1, 1), []int{2, 3, 7, 7}, true},
		{"batchnorm", func(*rand.Rand) Layer { return NewBatchNorm2d("bn", 3, tensor.Rect{}) }, []int{2, 3, 5, 5}, false},
		{"batchnorm relu6", func(*rand.Rand) Layer { return NewBatchNorm2d("bn", 3, relu6) }, []int{2, 3, 5, 5}, false},
		{"global avgpool", func(*rand.Rand) Layer { return NewGlobalAvgPool("gap") }, []int{2, 3, 5, 5}, false},
		{"sequential", chain, []int{2, 3, 9, 9}, false},
	} {
		tensor.SetPacked(!tc.oracle)
		layer, ref := tc.build(rng), tc.build(nil)
		CopyState(ref, layer)
		x := tensor.New(tc.in...)
		x.Randn(rng, 1)
		yRef := ref.Forward(x, true)
		g := tensor.New(yRef.Shape()...)
		g.Randn(rng, 1)
		dxRef := ref.Backward(g)

		a := new(tensor.Arena)
		Attach(layer, a, false)
		nan := float32(math.NaN())
		y := layer.Forward(x, true)
		dx := layer.Backward(g)
		y.Fill(nan) // a Linear's output is a heap tensor: harmless
		dx.Fill(nan)
		a.Reset()
		ZeroGrads(layer)
		before := a.Bytes()
		y = layer.Forward(x, true)
		dx = layer.Backward(g)
		if a.Bytes() != before {
			t.Errorf("%s: the second pass grew the arena from %d to %d bytes", tc.name, before, a.Bytes())
		}
		if !float32BitsEqual(y.Data, yRef.Data) {
			t.Errorf("%s: output over a recycled buffer differs from the one over a zeroed tensor", tc.name)
		}
		if !float32BitsEqual(dx.Data, dxRef.Data) {
			t.Errorf("%s: input gradient over a recycled buffer differs from the one over a zeroed tensor", tc.name)
		}
		pr := CollectParams(ref)
		for i, p := range CollectParams(layer) {
			if !float32BitsEqual(p.Grad, pr[i].Grad) {
				t.Errorf("%s: %s gradient differs from the one computed over zeroed tensors", tc.name, p.Name)
			}
		}
	}
}

// TestSequentialReleasesOnlyWhatItMade: a chain frees each activation
// after the next layer has read it, and never its input or its result; what a layer holds for its
// Backward goes back when that Backward has run, and under Attach(…,
// infer), where nobody holds, at the Free. Backward frees gradients the
// same way in either mode.
func TestSequentialReleasesOnlyWhatItMade(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	net := NewSequential("net",
		NewConv2d("c1", rng, 4, 4, 3, 1, 1, 1), NewBatchNorm2d("bn", 4, relu),
		NewConv2d("c2", rng, 4, 4, 3, 1, 1, 1), NewGlobalAvgPool("gap"), NewLinear("fc", rng, 4, 3))
	// The input is the caller's even when it is the arena's; it has the
	// size of every activation here, so a chain that released it would see
	// it handed out again and overwritten.
	const plane, row = 4 * (2 * 4 * 6 * 6), 4 * (2 * 4)
	input := func(a *tensor.Arena) *tensor.Tensor {
		x := a.New(2, 4, 6, 6)
		x.Randn(rand.New(rand.NewSource(44)), 1)
		return x
	}

	// What a conv draws for the length of a call — staging, the gathered
	// taps, dW partials, the lowered row — measured on one of the chain's
	// two alike convs alone; it is back in the arena when the call returns,
	// so the second conv recycles the first's.
	var convFw, convBw int
	{
		a := new(tensor.Arena)
		c := NewConv2d("c", rng, 4, 4, 3, 1, 1, 1)
		Attach(c, a, false)
		y := c.Forward(input(a), false)
		convFw = a.Bytes() - 2*plane
		c.Backward(y)
		convBw = a.Bytes() - 3*plane - convFw
	}
	if convFw <= 0 || convBw <= 0 {
		t.Fatalf("a padded conv draws %d transient bytes forward and %d more backward, want both positive", convFw, convBw)
	}

	keep := new(tensor.Arena)
	Attach(net, keep, false)
	y := net.Forward(input(keep), false)
	if got, want := keep.Bytes(), 4*plane+row+convFw; got != want {
		t.Fatalf("a forward that keeps its activations holds %d bytes, want %d: the input, two convs, the norm, the pool and one conv's transients", got, want)
	}
	net.Backward(y)
	if got, want := keep.Bytes()-(4*plane+row+convFw), plane+convBw; got != want {
		t.Fatalf("Backward drew %d bytes, want %d: one plane-sized buffer and one conv's transients — every other gradient reuses an activation whose readers are done (the linear layer's dX the pool output, the pool's the second conv's)", got, want)
	}

	early := new(tensor.Arena)
	Attach(net, early, true)
	x := input(early)
	x0 := append([]float32(nil), x.Data...)
	yi := net.Forward(x, false)
	if !float32BitsEqual(yi.Data, y.Data) {
		t.Fatal("the releasing forward computes a different result")
	}
	if !float32BitsEqual(x.Data, x0) {
		t.Fatal("the chain released its input and something overwrote it")
	}
	if got, want := early.Bytes(), 3*plane+row+convFw; got != want {
		t.Fatalf("the releasing forward holds %d bytes, want %d: the second conv writes where the first did", got, want)
	}
}

// TestConvReplansWhenTheInputShapeChanges: a conv keeps its plans for the
// last input shape and no longer, so 32×32 → 16×16 → 32×32 through one
// layer — strided, grouped and ungrouped, on an arena whose buffers of the
// other size are still around — is bit-equal at every step to a twin that
// never saw another shape, and a repeated shape builds nothing.
func TestConvReplansWhenTheInputShapeChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, conv := range []*Conv2d{
		NewConv2d("3x3", rng, 4, 6, 3, 1, 1, 1),
		NewConv2d("3x3 stride 2", rng, 4, 6, 3, 2, 1, 1),
		NewConv2d("3x3 grouped", rng, 4, 6, 3, 1, 1, 2),
	} {
		a := new(tensor.Arena)
		Attach(conv, a, false)
		for _, hw := range []int{32, 16, 32, 32} {
			x := tensor.New(3, 4, hw, hw)
			x.Randn(rng, 1)
			ref := NewConv2d(conv.name, nil, conv.InC, conv.OutC, conv.K, conv.Stride, conv.Pad, conv.Groups)
			CopyState(ref, conv)
			yRef := ref.Forward(x, false)
			g := tensor.New(yRef.Shape()...)
			g.Randn(rng, 1)
			dxRef := ref.Backward(g)

			a.Reset()
			ZeroGrads(conv)
			fw, dxPlan := conv.fw, conv.dx
			y := conv.Forward(x, false)
			dx := conv.Backward(g)
			if conv.Spec().Conv.H != hw || !float32BitsEqual(y.Data, yRef.Data) {
				t.Fatalf("%s at %d×%d: output differs from a layer that never saw another shape", conv.name, hw, hw)
			}
			if !float32BitsEqual(dx.Data, dxRef.Data) || !float32BitsEqual(conv.Weight.Grad, ref.Params()[0].Grad) {
				t.Fatalf("%s at %d×%d: gradients differ from a layer that never saw another shape", conv.name, hw, hw)
			}
			kept := conv.fw == fw && conv.dx == dxPlan
			if want := fw != nil && fw.H == hw; kept != want {
				t.Fatalf("%s at %d×%d: plans kept = %v, want %v: exactly when the shape repeats", conv.name, hw, hw, kept, want)
			}
		}
	}
}
