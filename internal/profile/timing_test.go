package profile

import (
	"math/rand"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

func reproWRN(seed int64) *models.Model {
	return models.WideResNet402(rand.New(rand.NewSource(seed)), models.ReproScale)
}

// measure runs the algorithm for real on the model under the layer
// profiler — the paper's Autograd-profiler methodology on this host's own
// kernels — and returns wall time by layer kind and direction. One warm-up
// Process populates the caches outside the measurement. (The table with a
// variance is `bash bench/run.sh --workload <w> --trace 1`.)
func measure(t *testing.T, m *models.Model, algo core.Algorithm, batch, repeats int) nn.PhaseTotals {
	t.Helper()
	adapter, err := core.New(algo, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(batch, m.InC, m.InHW, m.InHW)
	for i := range x.Data {
		x.Data[i] = float32(i%97) / 97
	}
	adapter.Process(x)
	if !nn.StartProfiling() {
		t.Fatal("another profiler collection is active")
	}
	for i := 0; i < repeats; i++ {
		adapter.Process(x)
	}
	return nn.StopProfiling()
}

func TestProfilerDisabledRecordsNothing(t *testing.T) {
	m := reproWRN(1)
	x := tensor.New(4, 3, 32, 32)
	m.Forward(x, false)
	totals := nn.StopProfiling() // nothing active
	if totals.Total() != 0 {
		t.Fatalf("inactive profiler recorded %v seconds", totals.Total())
	}
}

func TestProfilerSingleCollection(t *testing.T) {
	if !nn.StartProfiling() {
		t.Fatal("first StartProfiling must succeed")
	}
	if nn.StartProfiling() {
		nn.StopProfiling()
		t.Fatal("second StartProfiling must fail while active")
	}
	nn.StopProfiling()
}

func TestMeasureBreakdownNoAdaptHasNoBackward(t *testing.T) {
	one, two := measure(t, reproWRN(2), core.NoAdapt, 8, 1), measure(t, reproWRN(2), core.NoAdapt, 8, 2)
	if one.FwSeconds[nn.KindConv] <= 0 || one.FwSeconds[nn.KindBN] <= 0 {
		t.Fatalf("missing forward phases: %+v", one.FwSeconds)
	}
	for kind, s := range one.BwSeconds {
		if s != 0 {
			t.Fatalf("NoAdapt recorded backward time for %v: %v", kind, s)
		}
	}
	// Call counts are per Process: twice the repeats, twice the calls.
	for _, kind := range []nn.Kind{nn.KindConv, nn.KindBN} {
		if one.FwCalls[kind] == 0 || two.FwCalls[kind] != 2*one.FwCalls[kind] {
			t.Fatalf("%v forward calls: %d for one repeat, %d for two", kind, one.FwCalls[kind], two.FwCalls[kind])
		}
	}
}

func TestMeasureBreakdownBNOptBackwardShare(t *testing.T) {
	r := measure(t, reproWRN(3), core.BNOpt, 16, 2)
	ratio := r.BwSeconds[nn.KindConv] / r.FwSeconds[nn.KindConv]
	// The paper measures 2.2–2.5x on its Arm/Volta targets. Here BN-Opt's
	// conv backward is the input gradient alone, run on the forward kernel
	// (and skipped at the stem), so the ratio sits a little under 1; the
	// strip-mined lowering it replaced read 6–7. The bounds only reject a
	// backward that vanished or went back to that.
	if ratio < 0.3 || ratio > 4.0 {
		t.Fatalf("conv bw/fw ratio %.2f implausible", ratio)
	}
	bwTotal := r.BwSeconds[nn.KindConv] + r.BwSeconds[nn.KindBN]
	fwTotal := r.FwSeconds[nn.KindConv] + r.FwSeconds[nn.KindBN]
	if bwTotal <= 0.5*fwTotal {
		t.Fatalf("BN-Opt backward (%.4fs) should be a significant share of forward (%.4fs)", bwTotal, fwTotal)
	}
	if r.BwCalls[nn.KindConv] == 0 || r.BwCalls[nn.KindBN] == 0 {
		t.Fatal("backward calls not recorded")
	}
}

// TestRealAlgorithmCostOrdering: the measured wall-clock per batch must
// satisfy the paper's cost ordering on this host too.
func TestRealAlgorithmCostOrdering(t *testing.T) {
	cost := func(algo core.Algorithm) float64 {
		return measure(t, reproWRN(4), algo, 16, 2).Total()
	}
	na, bn, bo := cost(core.NoAdapt), cost(core.BNNorm), cost(core.BNOpt)
	t.Logf("measured: no-adapt %.4fs, bn-norm %.4fs, bn-opt %.4fs", na, bn, bo)
	if !(bo > bn) {
		t.Fatalf("BN-Opt (%.4f) must cost more than BN-Norm (%.4f)", bo, bn)
	}
	if !(bo > na) {
		t.Fatalf("BN-Opt (%.4f) must cost more than No-Adapt (%.4f)", bo, na)
	}
}
