// Package edgetta_test holds the repository-level benchmark harness: one
// benchmark per paper figure/table (regenerating it through the calibrated
// device simulator and study harness) plus real-execution benchmarks of
// the underlying kernels, models and adaptation algorithms.
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
	"edgetta/internal/device"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/profile"
	"edgetta/internal/study"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// benchFigure regenerates one paper artifact per iteration and reports the
// output size, failing the benchmark on any error.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	var n int
	for i := 0; i < b.N; i++ {
		out, err := study.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
		n = len(out)
	}
	b.ReportMetric(float64(n), "output_bytes")
}

func BenchmarkFig2PredictionErrors(b *testing.B)    { benchFigure(b, "fig2") }
func BenchmarkFig3Ultra96ForwardTimes(b *testing.B) { benchFigure(b, "fig3") }
func BenchmarkFig4Ultra96Breakdown(b *testing.B)    { benchFigure(b, "fig4") }
func BenchmarkFig5Ultra96Tradeoffs(b *testing.B)    { benchFigure(b, "fig5") }
func BenchmarkFig6RPiForwardTimes(b *testing.B)     { benchFigure(b, "fig6") }
func BenchmarkFig7RPiBreakdown(b *testing.B)        { benchFigure(b, "fig7") }
func BenchmarkFig8RPiTradeoffs(b *testing.B)        { benchFigure(b, "fig8") }
func BenchmarkFig9XavierForwardTimes(b *testing.B)  { benchFigure(b, "fig9") }
func BenchmarkFig10XavierBreakdown(b *testing.B)    { benchFigure(b, "fig10") }
func BenchmarkFig11XavierTradeoffs(b *testing.B)    { benchFigure(b, "fig11") }
func BenchmarkFig12OverallResults(b *testing.B)     { benchFigure(b, "fig12") }
func BenchmarkTable1MobileNetForward(b *testing.B)  { benchFigure(b, "table1") }

// BenchmarkAnchorWRN50NXGPU reports the paper's headline configuration
// (WRN-AM-50 + BN-Norm on the Xavier NX GPU) as custom metrics, so bench
// output records the simulated values next to the paper's 0.315 s / 2.96 J.
func BenchmarkAnchorWRN50NXGPU(b *testing.B) {
	d, _ := device.ByTag("xaviernx")
	p, err := profile.Get("WRN-AM")
	if err != nil {
		b.Fatal(err)
	}
	var r device.Report
	for i := 0; i < b.N; i++ {
		r, err = device.Estimate(d, device.GPU, p, core.BNNorm, 50)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Seconds, "sim_s")
	b.ReportMetric(r.EnergyJ, "sim_J")
}

// --- Real-execution benchmarks of the substrates ---

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
	bn := nn.NewBatchNorm2d("bn", 64)
	x := tensor.New(50, 64, 16, 16)
	x.Randn(rand.New(rand.NewSource(1)), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.Forward(x, true)
	}
}

// BenchmarkBNReLUForward times the fused BN(+ReLU) pass — statistics,
// normalize and rectifier over one activation — at the shape of
// BenchmarkBatchNormTrainForward, with batch statistics (BN-Norm, BN-Opt)
// and with running statistics (No-Adapt).
func BenchmarkBNReLUForward(b *testing.B) {
	for _, mode := range []struct {
		name       string
		batchStats bool
	}{{"batchstats", true}, {"running", false}} {
		b.Run(mode.name, func(b *testing.B) {
			bn, act := nn.NewBatchNorm2d("bn", 64), nn.NewReLU("relu")
			bn.UseBatchStats = mode.batchStats
			x := tensor.New(50, 64, 16, 16)
			x.Randn(rand.New(rand.NewSource(1)), 1)
			b.SetBytes(int64(4 * x.Numel()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bn.ForwardFused(x, nil, act, false)
			}
		})
	}
}

// BenchmarkBNReLUBackward times the matching backward: the rectifier's
// gate read from the saved output, Σdy and Σdy·x̂ with x̂ recomputed, dx.
func BenchmarkBNReLUBackward(b *testing.B) {
	bn, act := nn.NewBatchNorm2d("bn", 64), nn.NewReLU("relu")
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(50, 64, 16, 16)
	x.Randn(rng, 1)
	grad := tensor.New(x.Shape()...)
	grad.Randn(rng, 1)
	bn.ForwardFused(x, nil, act, true)
	b.SetBytes(int64(4 * x.Numel()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bn.BackwardFused(grad)
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
// stream: BN-Norm under a reset policy on an abrupt corruption switch, via
// the scenario driver with per-phase attribution. Compared to
// BenchmarkStreamAdaptation, the extra cost is scenario scheduling,
// per-image corruption dispatch and the policy's entropy bookkeeping.
func BenchmarkScenarioStream(b *testing.B) {
	m := reproModel(b)
	base, err := core.New(core.BNNorm, m, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	a := core.WithPolicy(base, core.Policy{ResetThreshold: 1.35, BaselineMomentum: 0.8})
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
