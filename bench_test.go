// Package edgetta_test holds the repository-level Go benchmarks:
// real-execution timings of the underlying kernels, models and adaptation
// algorithms.
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package edgetta_test

import (
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

func reproModel(b *testing.B) *models.Model {
	b.Helper()
	return models.WideResNet402(rand.New(rand.NewSource(1)), models.ReproScale)
}

func randBatch(n int) *tensor.Tensor {
	x := tensor.New(n, 3, 32, 32)
	x.Uniform(rand.New(rand.NewSource(2)), 0, 1)
	return x
}

// BenchmarkBNNormRepro measures the BN-Norm adaptation step: a forward
// pass with batch-statistics BN.
func BenchmarkBNNormRepro(b *testing.B) {
	m := reproModel(b)
	a, err := core.New(core.BNNorm, m, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	x := randBatch(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Process(x)
	}
}

// BenchmarkFullScaleWRNForward runs a real single-image forward through
// the paper-exact WideResNet-40-2 (0.33 GMACs).
func BenchmarkFullScaleWRNForward(b *testing.B) {
	m := models.WideResNet402(rand.New(rand.NewSource(1)), models.Full)
	x := randBatch(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

// BenchmarkFullScaleWRNForwardTraced is the same forward with a tracer
// installed: its delta against BenchmarkFullScaleWRNForward is the cost of
// the telemetry contract (disabled tracing must be free; enabled tracing
// must stay within a few percent on a real workload).
func BenchmarkFullScaleWRNForwardTraced(b *testing.B) {
	prior := telemetry.StopTracing()
	defer func() {
		if prior != nil {
			telemetry.StartTracing()
		}
	}()
	m := models.WideResNet402(rand.New(rand.NewSource(1)), models.Full)
	x := randBatch(1)
	tr := telemetry.StartTracingLimit(1 << 20)
	if tr == nil {
		b.Fatal("StartTracing failed")
	}
	defer telemetry.StopTracing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
	b.StopTimer()
	b.ReportMetric(float64(tr.Len()), "trace_events")
}

// BenchmarkConv3x3Backward measures one 3×3 conv layer's backward both ways:
// frozen is what a BN-Opt step pays (dX only, on the forward kernel),
// unfrozen what training pays (dX plus the row-by-row dW reduction).
func BenchmarkConv3x3Backward(b *testing.B) {
	for _, frozen := range []bool{true, false} {
		name := "unfrozen"
		if frozen {
			name = "frozen"
		}
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := nn.NewConv2d("c", rng, 32, 32, 3, 1, 1, 1)
			conv.Weight.Frozen = frozen
			x := tensor.New(8, 32, 32, 32)
			x.Randn(rng, 1)
			grad := conv.Forward(x, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Backward(grad)
			}
		})
	}
}

// BenchmarkConvForward times one conv layer's forward at batch 8, one
// shape per class the kernel serves: read in place (1×1 stride 1) or staged
// (padded, strided), ungrouped, grouped and depthwise.
func BenchmarkConvForward(b *testing.B) {
	for _, s := range []struct {
		name                             string
		inC, outC, hw, k, stride, groups int
	}{
		{"3x3s1", 32, 32, 32, 3, 1, 1},
		{"3x3s2", 32, 64, 32, 3, 2, 1},
		{"1x1s1", 64, 64, 16, 1, 1, 1},
		{"1x1s2", 32, 64, 32, 1, 2, 1},
		{"grouped", 32, 32, 16, 3, 1, 2},
		{"depthwise", 48, 48, 16, 3, 1, 48},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := nn.NewConv2d("c", rng, s.inC, s.outC, s.k, s.stride, s.k/2, s.groups)
			x := tensor.New(8, s.inC, s.hw, s.hw)
			x.Randn(rng, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Forward(x, false)
			}
		})
	}
}

// BenchmarkForwardEval is the eval-mode forward of each repro-scale model at
// batch 50 — R18 and MobileNetV2 are in no workload of the repository's
// benchmark, so this is where a conv change shows on them.
func BenchmarkForwardEval(b *testing.B) {
	for _, tag := range []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"} {
		m, err := models.ByTag(tag, rand.New(rand.NewSource(1)), models.ReproScale)
		if err != nil {
			b.Fatal(err)
		}
		x := randBatch(50)
		name, _, _ := strings.Cut(tag, "-")
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Forward(x, false)
			}
		})
	}
}

func BenchmarkBatchNormTrainForward(b *testing.B) {
	bn := nn.NewBatchNorm2d("bn", 64, tensor.Rect{})
	x := tensor.New(50, 64, 16, 16)
	x.Randn(rand.New(rand.NewSource(1)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Forward(x, true)
	}
}

// bnShapes are the batch-50 activations a repro ResNeXt-29's BatchNorms
// see, one per resolution, with that resolution's channel count: 16 at
// 32×32, 32 at 16×16, 64 at 8×8. One channel is 50 planes, one kernel
// call per sweep.
var bnShapes = []struct {
	name     string
	channels int
	hw       int
}{{"32x32", 16, 32}, {"16x16", 32, 16}, {"8x8", 64, 8}}

// newBNReLU returns a BatchNorm over c channels ending in a ReLU, drawing
// its outputs from an arena as a model's layers do, and a random batch-50
// input of c channels of hw×hw.
func newBNReLU(c, hw int) (*nn.BatchNorm2d, *tensor.Arena, *tensor.Tensor) {
	bn, arena := nn.NewBatchNorm2d("bn", c, tensor.Rect{On: true}), new(tensor.Arena)
	nn.Attach(bn, arena, false)
	x := tensor.New(50, c, hw, hw)
	x.Randn(rand.New(rand.NewSource(1)), 1)
	return bn, arena, x
}

// BenchmarkBNReLUForward times the BN+ReLU pass — statistics,
// normalize and rectifier over one activation — at each of bnShapes, with
// batch statistics (BN-Norm, BN-Opt) and with running statistics
// (No-Adapt). Its output goes back to the arena after each pass, so a
// timed pass reuses one buffer and the kernels are what is timed.
func BenchmarkBNReLUForward(b *testing.B) {
	for _, mode := range []struct {
		name       string
		batchStats bool
	}{{"batchstats", true}, {"running", false}} {
		for _, sh := range bnShapes {
			b.Run(mode.name+"/"+sh.name, func(b *testing.B) {
				bn, arena, x := newBNReLU(sh.channels, sh.hw)
				bn.UseBatchStats = mode.batchStats
				arena.Free(bn.Forward(x, false)) // the arena's one allocation
				b.SetBytes(int64(4 * x.Numel()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arena.Free(bn.Forward(x, false))
				}
			})
		}
	}
}

// BenchmarkBNReLUBackward times the matching backward at each of bnShapes:
// Σdy and Σdy·x̂ with x̂ and the rectifier's gate recomputed from the
// input, dx — which goes back to the arena after each pass.
func BenchmarkBNReLUBackward(b *testing.B) {
	for _, sh := range bnShapes {
		b.Run(sh.name, func(b *testing.B) {
			bn, arena, x := newBNReLU(sh.channels, sh.hw)
			grad := tensor.New(x.Shape()...)
			grad.Randn(rand.New(rand.NewSource(2)), 1)
			bn.Forward(x, true)
			arena.Free(bn.Backward(grad)) // the arena's one allocation
			b.SetBytes(int64(4 * x.Numel()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arena.Free(bn.Backward(grad))
			}
		})
	}
}

// BenchmarkCorruptions measures the full CIFAR-10-C corruption suite on
// one image at severity 5.
func BenchmarkCorruptions(b *testing.B) {
	gen := data.NewGenerator(1)
	rng := rand.New(rand.NewSource(2))
	img := gen.Sample(rng, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range data.AllCorruptions {
			data.Apply(c, img, data.ImageSize, data.ImageSize, 5, rng)
		}
	}
}

// BenchmarkStreamAdaptation measures a short end-to-end online adaptation
// episode (BN-Norm over a 200-sample corrupted stream).
func BenchmarkStreamAdaptation(b *testing.B) {
	m := reproModel(b)
	a, err := core.New(core.BNNorm, m, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	gen := data.NewGenerator(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := gen.NewStream(int64(i), 200, data.GaussianNoise, 5)
		core.RunStream(a, s, 50)
	}
}

// BenchmarkScenarioStream measures continual adaptation over a shifting
// stream: BN-Norm on an abrupt corruption switch, via the scenario driver
// with per-phase attribution. Compared to BenchmarkStreamAdaptation, the
// extra cost is scenario scheduling, per-image corruption dispatch and the
// per-phase bookkeeping.
func BenchmarkScenarioStream(b *testing.B) {
	m := reproModel(b)
	a, err := core.New(core.BNNorm, m, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	gen := data.NewGenerator(6)
	sc := data.AbruptSwitch("bench", []data.Corruption{data.GaussianNoise, data.Fog}, 5, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := gen.NewScheduledStream(int64(i), sc)
		if err != nil {
			b.Fatal(err)
		}
		core.RunScenario(a, s, 50)
	}
}
