package device

import (
	"fmt"
	"math"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/profile"
)

func prof(t testing.TB, tag string) *profile.ModelProfile {
	t.Helper()
	p, err := profile.Get(tag)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func estimate(t testing.TB, d *Device, kind EngineKind, tag string, algo core.Algorithm, batch int) Report {
	t.Helper()
	r, err := Estimate(d, kind, prof(t, tag), algo, batch)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Errorf("%s = %.4g, want %.4g ±%.0f%%", name, got, want, tol*100)
	} else {
		t.Logf("%s = %.4g (paper %.4g, %+.1f%%)", name, got, want, 100*(got-want)/want)
	}
}

// TestPaperAnchors pins the simulator against every quantitative anchor
// the paper reports. These are the calibration targets; everything else
// the simulator outputs is a prediction.
func TestPaperAnchors(t *testing.T) {
	u96, rpi, nx := Ultra96(), RPi4(), XavierNX()

	// --- Ultra96 WRN-AM-50 (Figs. 3, 5) ---
	na := estimate(t, u96, CPU, "WRN-AM", core.NoAdapt, 50)
	bn := estimate(t, u96, CPU, "WRN-AM", core.BNNorm, 50)
	bo := estimate(t, u96, CPU, "WRN-AM", core.BNOpt, 50)
	within(t, "u96 WRN-50 NoAdapt s", na.Seconds, 3.58, 0.10)
	within(t, "u96 WRN-50 BN-Norm s", bn.Seconds, 3.95, 0.10)
	within(t, "u96 WRN-50 BN-Opt s", bo.Seconds, 13.35, 0.10)
	within(t, "u96 WRN-50 NoAdapt J", na.EnergyJ, 4.47, 0.12)
	within(t, "u96 WRN-50 BN-Norm J", bn.EnergyJ, 4.93, 0.12)
	within(t, "u96 WRN-50 BN-Opt J", bo.EnergyJ, 14.35, 0.15)

	// --- RPi WRN-AM-50 (Figs. 6, 8) ---
	na = estimate(t, rpi, CPU, "WRN-AM", core.NoAdapt, 50)
	bn = estimate(t, rpi, CPU, "WRN-AM", core.BNNorm, 50)
	bo = estimate(t, rpi, CPU, "WRN-AM", core.BNOpt, 50)
	within(t, "rpi WRN-50 NoAdapt s", na.Seconds, 2.04, 0.10)
	within(t, "rpi WRN-50 BN-Norm s", bn.Seconds, 2.59, 0.10)
	within(t, "rpi WRN-50 BN-Opt s", bo.Seconds, 7.97, 0.10)
	within(t, "rpi WRN-50 NoAdapt J", na.EnergyJ, 5.04, 0.12)
	within(t, "rpi WRN-50 BN-Norm J", bn.EnergyJ, 5.95, 0.12)
	within(t, "rpi WRN-50 BN-Opt J", bo.EnergyJ, 19.12, 0.12)

	// --- Xavier NX GPU WRN-AM-50 (Figs. 9, 11; the 213 ms / 1.9 J
	// adaptation overhead of Sec. IV-E) ---
	na = estimate(t, nx, GPU, "WRN-AM", core.NoAdapt, 50)
	bn = estimate(t, nx, GPU, "WRN-AM", core.BNNorm, 50)
	bo = estimate(t, nx, GPU, "WRN-AM", core.BNOpt, 50)
	within(t, "nx-gpu WRN-50 NoAdapt s", na.Seconds, 0.10, 0.12)
	within(t, "nx-gpu WRN-50 BN-Norm s", bn.Seconds, 0.315, 0.10)
	within(t, "nx-gpu WRN-50 BN-Opt s", bo.Seconds, 0.82, 0.10)
	within(t, "nx-gpu WRN-50 NoAdapt J", na.EnergyJ, 1.02, 0.12)
	within(t, "nx-gpu WRN-50 BN-Norm J", bn.EnergyJ, 2.96, 0.12)
	within(t, "nx-gpu WRN-50 BN-Opt J", bo.EnergyJ, 7.96, 0.12)
	within(t, "nx-gpu BN-Norm overhead (213ms)", bn.Seconds-na.Seconds, 0.213, 0.15)
	within(t, "nx-gpu BN-Norm overhead (1.9J)", bn.EnergyJ-na.EnergyJ, 1.9, 0.20)

	// --- The overall points of Fig. 12 ---
	a1 := estimate(t, nx, CPU, "RXT-AM", core.BNOpt, 200)
	within(t, "A1: nx-cpu RXT-200 BN-Opt s", a1.Seconds, 69.58, 0.10)
	if a1.OOM {
		t.Error("A1 must be feasible on the NX CPU")
	}
	a2 := estimate(t, rpi, CPU, "RXT-AM", core.BNOpt, 200)
	within(t, "A2: rpi RXT-200 BN-Opt J", a2.EnergyJ, 337.43, 0.12)
	if a2.OOM {
		t.Error("A2 must be feasible on the RPi")
	}
	// A1 is the fastest feasible configuration at best accuracy; A2 the
	// most efficient. Their cross-device ordering must hold.
	if a1.Seconds >= a2.Seconds {
		t.Error("NX CPU should be faster than RPi for RXT-200 BN-Opt")
	}
	if a2.EnergyJ >= a1.EnergyJ {
		t.Error("RPi should be more energy-efficient than NX CPU for RXT-200 BN-Opt")
	}
	// 220× faster / 114× more energy-efficient than A3 (Sec. IV-E).
	a3 := estimate(t, nx, GPU, "WRN-AM", core.BNNorm, 50)
	within(t, "A1/A3 speed ratio (220x)", a1.Seconds/a3.Seconds, 220, 0.20)
	within(t, "A2/A3 energy ratio (114x)", a2.EnergyJ/a3.EnergyJ, 114, 0.20)
}

// TestOOMMatrix pins exactly which configurations die, matching Secs.
// IV-B and IV-D: BN-Opt with ResNeXt OOMs on the Ultra96 at batch ≥100 and
// on the NX GPU at batch 200 only; everything runs on the RPi and NX CPU;
// BN-Norm and No-Adapt always fit.
func TestOOMMatrix(t *testing.T) {
	u96, rpi, nx := Ultra96(), RPi4(), XavierNX()
	type cfg struct {
		d     *Device
		kind  EngineKind
		model string
		algo  core.Algorithm
		batch int
		oom   bool
	}
	cases := []cfg{
		{u96, CPU, "RXT-AM", core.BNOpt, 50, false},
		{u96, CPU, "RXT-AM", core.BNOpt, 100, true},
		{u96, CPU, "RXT-AM", core.BNOpt, 200, true},
		{u96, CPU, "R18-AM-AT", core.BNOpt, 200, false},
		{u96, CPU, "WRN-AM", core.BNOpt, 200, false},
		{u96, CPU, "RXT-AM", core.BNNorm, 200, false},
		{rpi, CPU, "RXT-AM", core.BNOpt, 200, false},
		{nx, CPU, "RXT-AM", core.BNOpt, 200, false},
		{nx, GPU, "RXT-AM", core.BNOpt, 100, false},
		{nx, GPU, "RXT-AM", core.BNOpt, 200, true},
		{nx, GPU, "WRN-AM", core.BNOpt, 200, false},
		{nx, GPU, "R18-AM-AT", core.BNOpt, 200, false},
	}
	for _, c := range cases {
		r := estimate(t, c.d, c.kind, c.model, c.algo, c.batch)
		if r.OOM != c.oom {
			t.Errorf("%s/%s %s %s b%d: OOM=%v, paper says %v (peak %.0f MB)",
				c.d.Tag, c.kind, c.model, c.algo, c.batch, r.OOM, c.oom,
				float64(r.PeakMemBytes)/float64(mb))
		}
	}
}

// TestGraphMemoryAnchors checks the simulated dynamic-graph sizes against
// the paper's profiler readings (Sec. IV-B: 3.12 GB at batch 100, 5.1 GB
// at batch 200 for ResNeXt), and that the profiler itself OOMs ResNeXt-50
// on the Ultra96 (Fig. 4's missing bars).
func TestGraphMemoryAnchors(t *testing.T) {
	p := prof(t, "RXT-AM")
	within(t, "RXT graph b100 (GB)", float64(GraphBytes(p, 100, true))/float64(gb), 3.12, 0.20)
	within(t, "RXT graph b200 (GB)", float64(GraphBytes(p, 200, true))/float64(gb), 5.1, 0.20)
	u96 := Ultra96()
	avail := u96.MemBytes - u96.OSReserveBytes
	withProfiler := GraphBytes(p, 50, true) + u96.RuntimeBytes
	if withProfiler <= avail {
		t.Errorf("profiler + RXT-50 graph should exceed Ultra96 memory (%d MB <= %d MB)",
			withProfiler/mb, avail/mb)
	}
	without := estimate(t, u96, CPU, "RXT-AM", core.BNOpt, 50)
	if without.OOM {
		t.Error("RXT-50 BN-Opt without profiler must fit on Ultra96")
	}
}

// TestGPUSpeedups checks Sec. IV-D: the Volta accelerates every algorithm,
// with average time reductions near the paper's 90.5% (No-Adapt), 68.1%
// (BN-Norm) and 79.2% (BN-Opt).
func TestGPUSpeedups(t *testing.T) {
	nx := XavierNX()
	avg := func(algo core.Algorithm) float64 {
		sum, n := 0.0, 0
		for _, model := range []string{"RXT-AM", "WRN-AM", "R18-AM-AT"} {
			for _, b := range []int{50, 100, 200} {
				g := estimate(t, nx, GPU, model, algo, b)
				c := estimate(t, nx, CPU, model, algo, b)
				if g.OOM || c.OOM {
					continue
				}
				sum += (c.Seconds - g.Seconds) / c.Seconds
				n++
			}
		}
		return sum / float64(n) * 100
	}
	na, bn, bo := avg(core.NoAdapt), avg(core.BNNorm), avg(core.BNOpt)
	t.Logf("GPU time reduction: NoAdapt %.1f%% (paper 90.5), BN-Norm %.1f%% (68.1), BN-Opt %.1f%% (79.2)", na, bn, bo)
	if na < 80 || na > 96 {
		t.Errorf("No-Adapt GPU reduction %.1f%% outside [80, 96]", na)
	}
	if bn < 45 || bn > 85 {
		t.Errorf("BN-Norm GPU reduction %.1f%% outside [45, 85]", bn)
	}
	if bo < 65 || bo > 92 {
		t.Errorf("BN-Opt GPU reduction %.1f%% outside [65, 92]", bo)
	}
	if !(na > bo && bo > bn) {
		t.Errorf("paper's ordering NoAdapt > BN-Opt > BN-Norm reductions violated: %.1f %.1f %.1f", na, bo, bn)
	}
}

// TestResNeXtGPUBNInversion checks Fig. 10a's quirk: ResNeXt's batch-stat
// BN forward is slower on the GPU than on the CPU, while WRN's is not.
func TestResNeXtGPUBNInversion(t *testing.T) {
	nx := XavierNX()
	rxtGPU := estimate(t, nx, GPU, "RXT-AM", core.BNNorm, 50)
	rxtCPU := estimate(t, nx, CPU, "RXT-AM", core.BNNorm, 50)
	if rxtGPU.Phases.BNFw <= rxtCPU.Phases.BNFw {
		t.Errorf("RXT BN fw should be slower on GPU: gpu %.3f vs cpu %.3f",
			rxtGPU.Phases.BNFw, rxtCPU.Phases.BNFw)
	}
	wrnGPU := estimate(t, nx, GPU, "WRN-AM", core.BNNorm, 50)
	wrnCPU := estimate(t, nx, CPU, "WRN-AM", core.BNNorm, 50)
	if wrnGPU.Phases.BNFw >= wrnCPU.Phases.BNFw {
		t.Errorf("WRN BN fw should be faster on GPU: gpu %.3f vs cpu %.3f",
			wrnGPU.Phases.BNFw, wrnCPU.Phases.BNFw)
	}
}

// TestBreakdownRatios checks the profiler-figure ratios: conv backward ≈
// 2.2–2.5× forward, and batch-stat BN forward 3–5.5× eval-mode BN (the
// paper reports up to 3.68× for WRN and 4.71× for R18 on the Ultra96).
func TestBreakdownRatios(t *testing.T) {
	for _, tc := range []struct {
		d    *Device
		kind EngineKind
		want float64 // conv bw/fw multiplier
	}{
		{Ultra96(), CPU, 2.51}, {RPi4(), CPU, 2.5}, {XavierNX(), CPU, 2.5}, {XavierNX(), GPU, 2.2},
	} {
		for _, model := range []string{"WRN-AM", "R18-AM-AT"} {
			r := estimate(t, tc.d, tc.kind, model, core.BNOpt, 50)
			ratio := r.Phases.ConvBw / r.Phases.ConvFw
			if math.Abs(ratio-tc.want) > 0.01 {
				t.Errorf("%s/%s %s: conv bw/fw %.2f, want %.2f", tc.d.Tag, tc.kind, model, ratio, tc.want)
			}
			na := estimate(t, tc.d, tc.kind, model, core.NoAdapt, 50)
			bnRatio := r.Phases.BNFw / na.Phases.BNFw
			// The paper quotes the batch-stat/eval BN forward blow-up only
			// for the CPU devices (3.68–4.71×); on the GPU the anchors
			// force a much larger ratio (stat kernels are launch-bound).
			if tc.kind == CPU && (bnRatio < 2.0 || bnRatio > 8.0) {
				t.Errorf("%s/%s %s: BN train/eval ratio %.2f outside [2, 8]", tc.d.Tag, tc.kind, model, bnRatio)
			}
			if tc.kind == GPU && bnRatio < 2.0 {
				t.Errorf("%s/%s %s: GPU BN train/eval ratio %.2f < 2", tc.d.Tag, tc.kind, model, bnRatio)
			}
		}
	}
}

// TestMonotonicity: cost must be nondecreasing in batch size, and BN-Opt
// must never be cheaper than BN-Norm, which must never be cheaper than
// No-Adapt (on the same engine/model/batch).
func TestMonotonicity(t *testing.T) {
	for _, d := range All() {
		for _, eng := range d.Engines {
			for _, model := range []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"} {
				prev := 0.0
				for _, b := range []int{50, 100, 200} {
					r := estimate(t, d, eng.Kind, model, core.BNOpt, b)
					if r.Seconds <= prev {
						t.Errorf("%s/%s %s: time not increasing with batch", d.Tag, eng.Kind, model)
					}
					prev = r.Seconds
					na := estimate(t, d, eng.Kind, model, core.NoAdapt, b)
					bn := estimate(t, d, eng.Kind, model, core.BNNorm, b)
					if !(na.Seconds < bn.Seconds && bn.Seconds < r.Seconds) {
						t.Errorf("%s/%s %s b%d: algorithm cost ordering violated", d.Tag, eng.Kind, model, b)
					}
				}
			}
		}
	}
}

// TestAdaptOverheadAverages reproduces the paper's average extra
// adaptation times: ≈1.40 s (Ultra96 BN-Norm), ≈30.27 s (Ultra96 BN-Opt,
// over the 7 feasible cases), ≈0.86 s / 24.9 s (RPi, all 9 cases). These
// aggregates are reproduced loosely (±50%) — they average across models
// whose individual times the paper does not report.
func TestAdaptOverheadAverages(t *testing.T) {
	avgOverhead := func(d *Device, algo core.Algorithm) float64 {
		sum, n := 0.0, 0
		for _, model := range []string{"RXT-AM", "WRN-AM", "R18-AM-AT"} {
			for _, b := range []int{50, 100, 200} {
				r := estimate(t, d, CPU, model, algo, b)
				if r.OOM {
					continue
				}
				o, err := AdaptOverhead(d, CPU, prof(t, model), algo, b)
				if err != nil {
					t.Fatal(err)
				}
				sum += o
				n++
			}
		}
		return sum / float64(n)
	}
	within(t, "u96 avg BN-Norm overhead", avgOverhead(Ultra96(), core.BNNorm), 1.40, 0.50)
	within(t, "u96 avg BN-Opt overhead", avgOverhead(Ultra96(), core.BNOpt), 30.27, 0.50)
	// The RPi BN-Norm aggregate is the one anchor a linear-in-elements
	// model cannot reach: the paper's 0.86 s average is *below* a
	// ResNeXt-weighted mean of its own per-model numbers (WRN-50 alone is
	// 0.55 s and ResNeXt has 5× WRN's BN elements). We bound it instead;
	// EXPERIMENTS.md's calibration anchors list the per-model anchors.
	if o := avgOverhead(RPi4(), core.BNNorm); o < 0.4 || o > 3.5 {
		t.Errorf("rpi avg BN-Norm overhead %.2f outside [0.4, 3.5]", o)
	}
	within(t, "rpi avg BN-Opt overhead", avgOverhead(RPi4(), core.BNOpt), 24.9, 0.50)
}

// TestMobileNetTableI reproduces Table I: MobileNet forward times on the
// NX GPU for the three algorithms at each batch size. The paper's exact
// values are 1.63/0.58/0.07 (b50), 3.7/1.18/0.13 (b100), 8.28/2.95/0.25
// (b200) seconds for BN-Opt/BN-Norm/No-Adapt.
func TestMobileNetTableI(t *testing.T) {
	nx := XavierNX()
	cases := []struct {
		batch            int
		opt, norm, noAdp float64
	}{
		{50, 1.63, 0.58, 0.07}, {100, 3.7, 1.18, 0.13}, {200, 8.28, 2.95, 0.25},
	}
	for _, c := range cases {
		bo := estimate(t, nx, GPU, "MBV2", core.BNOpt, c.batch)
		bn := estimate(t, nx, GPU, "MBV2", core.BNNorm, c.batch)
		na := estimate(t, nx, GPU, "MBV2", core.NoAdapt, c.batch)
		within(t, fmt.Sprintf("mbv2 b%d BN-Opt", c.batch), bo.Seconds, c.opt, 0.35)
		within(t, fmt.Sprintf("mbv2 b%d BN-Norm", c.batch), bn.Seconds, c.norm, 0.35)
		within(t, fmt.Sprintf("mbv2 b%d NoAdapt", c.batch), na.Seconds, c.noAdp, 0.35)
	}
}
