package edgetta_test

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// reports, as custom metrics, how a headline simulated quantity moves when
// one modeling ingredient is removed, and how the real adaptation kernels
// respond to algorithm knobs.

import (
	"fmt"
	"math/rand"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/device"
	"edgetta/internal/profile"
	"edgetta/internal/tensor"
)

// BenchmarkAblationGroupPenalty quantifies the grouped-convolution CPU
// penalty: without it, ResNeXt's A1 time (paper: 69.58 s) collapses and
// the calibration breaks.
func BenchmarkAblationGroupPenalty(b *testing.B) {
	nx, _ := device.ByTag("xaviernx")
	noPen := device.Hypothetical(nx, func(d *device.Device) {
		for i := range d.Engines {
			d.Engines[i].GroupPenalty = 1
		}
	})
	p, err := profile.Get("RXT-AM")
	if err != nil {
		b.Fatal(err)
	}
	var with, without device.Report
	for i := 0; i < b.N; i++ {
		with, _ = device.Estimate(nx, device.CPU, p, core.BNOpt, 200)
		without, _ = device.Estimate(noPen, device.CPU, p, core.BNOpt, 200)
	}
	b.ReportMetric(with.Seconds, "with_penalty_s")
	b.ReportMetric(without.Seconds, "without_penalty_s")
}

// BenchmarkAblationBNCliff quantifies the ≥1024-channel GPU BN cliff that
// reproduces Fig. 10a's ResNeXt inversion.
func BenchmarkAblationBNCliff(b *testing.B) {
	nx, _ := device.ByTag("xaviernx")
	noCliff := device.Hypothetical(nx, func(d *device.Device) {
		for i := range d.Engines {
			d.Engines[i].BigBNCliff = 1
		}
	})
	p, err := profile.Get("RXT-AM")
	if err != nil {
		b.Fatal(err)
	}
	var with, without device.Report
	for i := 0; i < b.N; i++ {
		with, _ = device.Estimate(nx, device.GPU, p, core.BNNorm, 50)
		without, _ = device.Estimate(noCliff, device.GPU, p, core.BNNorm, 50)
	}
	b.ReportMetric(with.Phases.BNFw, "bnfw_with_cliff_s")
	b.ReportMetric(without.Phases.BNFw, "bnfw_without_cliff_s")
}

// BenchmarkAblationBatchSize sweeps the adaptation batch size on the
// headline configuration, exposing the linear cost the paper trades
// against Fig. 2's diminishing accuracy returns.
func BenchmarkAblationBatchSize(b *testing.B) {
	nx, _ := device.ByTag("xaviernx")
	p, err := profile.Get("WRN-AM")
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("b%d", batch), func(b *testing.B) {
			var r device.Report
			for i := 0; i < b.N; i++ {
				r, _ = device.Estimate(nx, device.GPU, p, core.BNNorm, batch)
			}
			b.ReportMetric(r.Seconds, "sim_s")
			b.ReportMetric(r.EnergyJ, "sim_J")
		})
	}
}

// BenchmarkAblationBNOptSteps measures the real cost of taking more than
// the paper's single optimization step per batch.
func BenchmarkAblationBNOptSteps(b *testing.B) {
	for _, steps := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("steps%d", steps), func(b *testing.B) {
			m := reproModel(b)
			a, err := core.New(core.BNOpt, m, core.Config{Steps: steps})
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(50, 3, 32, 32)
			x.Uniform(rand.New(rand.NewSource(1)), 0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Process(x)
			}
		})
	}
}

// BenchmarkAblationWhatIfAccelerators prices the paper's co-design
// proposals (Sec. IV-G) against the calibrated baseline.
func BenchmarkAblationWhatIfAccelerators(b *testing.B) {
	nx, _ := device.ByTag("xaviernx")
	p, err := profile.Get("WRN-AM")
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		dev  *device.Device
	}{
		{"baseline", nx},
		{"bn_accel_x10", device.Hypothetical(nx, device.WithBNAccelerator(10))},
		{"bw_accel", device.Hypothetical(nx, device.WithBackpropAccelerator(1.0))},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var r device.Report
			for i := 0; i < b.N; i++ {
				r, _ = device.Estimate(v.dev, device.GPU, p, core.BNOpt, 50)
			}
			b.ReportMetric(r.Seconds, "bnopt_s")
		})
	}
}
