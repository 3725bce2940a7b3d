package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

func float32BitsEqual(a, b []float32) bool {
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

// TestConvDeterministicAcrossWorkerCounts pins the scheduler's contract at
// the layer level: a convolution's forward output, input gradient, and
// weight gradient must be bit-identical whether the pool runs one worker
// or eight. The weight gradient is the sharp edge — it is a reduction over
// images, which the old code merged in chunk-completion order.
func TestConvDeterministicAcrossWorkerCounts(t *testing.T) {
	type result struct{ y, dx, dw []float32 }
	run := func(workers int) result {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		rng := rand.New(rand.NewSource(23))
		conv := NewConv2d("c", rng, 4, 6, 3, 1, 1, 2)
		x := tensor.New(8, 4, 9, 9)
		x.Randn(rng, 1)
		y := conv.Forward(x, true)
		grad := tensor.New(y.Shape()...)
		grad.Randn(rng, 1)
		dx := conv.Backward(grad)
		return result{
			y:  append([]float32(nil), y.Data...),
			dx: append([]float32(nil), dx.Data...),
			dw: append([]float32(nil), conv.Weight.Grad...),
		}
	}
	one := run(1)
	eight := run(8)
	if !float32BitsEqual(one.y, eight.y) {
		t.Error("conv forward differs between 1 and 8 workers")
	}
	if !float32BitsEqual(one.dx, eight.dx) {
		t.Error("conv input gradient differs between 1 and 8 workers")
	}
	if !float32BitsEqual(one.dw, eight.dw) {
		t.Error("conv weight gradient differs between 1 and 8 workers")
	}
}

// TestConvPackedMatchesIm2ColAtLayerLevel pins the dispatch contract end
// to end: a Conv2d of any shape — in place or staged, strided, grouped,
// depthwise — must produce bit-identical forward output through the direct
// kernel and the im2col oracle, including after a weight update (the
// forward reads Weight.Data itself, so there is nothing to go stale).
func TestConvPackedMatchesIm2ColAtLayerLevel(t *testing.T) {
	wasPacked := tensor.PackedEnabled()
	defer tensor.SetPacked(wasPacked)

	for _, tc := range []struct{ in, out, k, stride, pad, groups int }{
		{3, 16, 3, 1, 1, 1},  // first layer
		{16, 16, 3, 1, 1, 1}, // whole tiles
		{16, 32, 1, 1, 0, 1}, // 1x1 shortcut, read in place
		{10, 12, 3, 1, 0, 1}, // 3x3 read in place
		{16, 32, 1, 2, 0, 1}, // strided shortcut
		{8, 12, 3, 2, 1, 1},  // strided 3x3
		{8, 12, 3, 1, 1, 4},  // grouped, a three-channel tile per group
		{6, 6, 3, 2, 1, 6},   // depthwise, strided
	} {
		rng := rand.New(rand.NewSource(31))
		conv := NewConv2d("c", rng, tc.in, tc.out, tc.k, tc.stride, tc.pad, tc.groups)
		x := tensor.New(3, tc.in, 9, 11)
		x.Randn(rng, 1)
		tensor.SetPacked(true)
		direct := conv.Forward(x, false)
		tensor.SetPacked(false)
		im2col := conv.Forward(x, false)
		if !float32BitsEqual(direct.Data, im2col.Data) {
			t.Errorf("%+v: direct and im2col forward differ", tc)
		}

		// Mutate the weights and re-check: a stale derived copy would show
		// up immediately.
		for i := range conv.Weight.Data {
			conv.Weight.Data[i] *= 1.5
		}
		tensor.SetPacked(true)
		updated := conv.Forward(x, false)
		tensor.SetPacked(false)
		im2col = conv.Forward(x, false)
		if !float32BitsEqual(updated.Data, im2col.Data) || float32BitsEqual(updated.Data, direct.Data) {
			t.Errorf("%+v: direct path served stale weights after update", tc)
		}
	}
}

// TestConvRejectsGeometryItCannotCompute: a kernel larger than the padded
// input has no output (the old size formula truncated (4−5)/2+1 to a 1×1
// plane of garbage), and a non-positive kernel or stride or a negative pad
// is no convolution at all; each is a panic naming the layer.
func TestConvRejectsGeometryItCannotCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	panics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "nn: bad") {
				t.Errorf("%s: recovered %q, want a panic naming the layer", name, msg)
			}
		}()
		fn()
	}
	panics("k=0", func() { NewConv2d("bad", rng, 2, 2, 0, 1, 0, 1) })
	panics("stride=0", func() { NewConv2d("bad", rng, 2, 2, 3, 0, 1, 1) })
	panics("pad=-1", func() { NewConv2d("bad", rng, 2, 2, 3, 1, -1, 1) })
	panics("groups=0", func() { NewConv2d("bad", rng, 2, 2, 3, 1, 1, 0) })
	conv := NewConv2d("bad", rng, 2, 2, 5, 2, 0, 1)
	panics("4x4 under k=5", func() { conv.Forward(tensor.New(1, 2, 4, 4), false) })
	panics("5x4 under k=5", func() { conv.Forward(tensor.New(1, 2, 5, 4), false) })
	if y := conv.Forward(tensor.New(1, 2, 5, 6), false); y.Dim(2) != 1 || y.Dim(3) != 1 {
		t.Errorf("5x6 under k=5 stride 2: output %v, want 1x1", y.Shape())
	}
}

// TestBatchNormDeterministicAcrossWorkerCounts covers the per-channel
// coarse loop (grain 1) in both statistics modes.
func TestBatchNormDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) ([]float32, []float32, []float32) {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		rng := rand.New(rand.NewSource(29))
		bn := NewBatchNorm2d("bn", 16, tensor.Rect{})
		x := tensor.New(6, 16, 7, 7)
		x.Randn(rng, 1)
		y := bn.Forward(x, true)
		grad := tensor.New(y.Shape()...)
		grad.Randn(rng, 1)
		dx := bn.Backward(grad)
		return append([]float32(nil), y.Data...),
			append([]float32(nil), dx.Data...),
			append([]float32(nil), bn.RunningMean...)
	}
	y1, dx1, rm1 := run(1)
	y8, dx8, rm8 := run(8)
	if !float32BitsEqual(y1, y8) {
		t.Error("batchnorm forward differs between 1 and 8 workers")
	}
	if !float32BitsEqual(dx1, dx8) {
		t.Error("batchnorm backward differs between 1 and 8 workers")
	}
	if !float32BitsEqual(rm1, rm8) {
		t.Error("batchnorm running stats differ between 1 and 8 workers")
	}
}
