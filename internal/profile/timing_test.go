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
	r, err := MeasureBreakdown(reproWRN(2), core.NoAdapt, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Totals.FwSeconds[nn.KindConv] <= 0 || r.Totals.FwSeconds[nn.KindBN] <= 0 {
		t.Fatalf("missing forward phases: %+v", r.Totals.FwSeconds)
	}
	for kind, s := range r.Totals.BwSeconds {
		if s != 0 {
			t.Fatalf("NoAdapt recorded backward time for %v: %v", kind, s)
		}
	}
	// WRN repro: 7 blocks × 2 conv + stem = 13 convs... count from spec:
	// just require the call counts to be consistent across repeats.
	if r.Totals.FwCalls[nn.KindConv] == 0 || r.Totals.FwCalls[nn.KindBN] == 0 {
		t.Fatal("no forward calls recorded")
	}
}

func TestMeasureBreakdownBNOptBackwardShare(t *testing.T) {
	r, err := MeasureBreakdown(reproWRN(3), core.BNOpt, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.ConvBwOverFw()
	// The paper measures 2.2–2.5x on its Arm/Volta targets. Here BN-Opt's
	// conv backward is the input gradient alone, run on the forward kernel
	// (and skipped at the stem), so the ratio sits a little under 1; the
	// strip-mined lowering it replaced read 6–7. The bounds only reject a
	// backward that vanished or went back to that.
	if ratio < 0.3 || ratio > 4.0 {
		t.Fatalf("conv bw/fw ratio %.2f implausible", ratio)
	}
	bwTotal := r.Totals.BwSeconds[nn.KindConv] + r.Totals.BwSeconds[nn.KindBN]
	fwTotal := r.Totals.FwSeconds[nn.KindConv] + r.Totals.FwSeconds[nn.KindBN]
	if bwTotal <= 0.5*fwTotal {
		t.Fatalf("BN-Opt backward (%.4fs) should be a significant share of forward (%.4fs)", bwTotal, fwTotal)
	}
	if r.Totals.BwCalls[nn.KindConv] == 0 || r.Totals.BwCalls[nn.KindBN] == 0 {
		t.Fatal("backward calls not recorded")
	}
	if s := r.String(); len(s) < 50 {
		t.Fatal("breakdown rendering too short")
	}
}

// TestRealBNNormCostBetweenNoAdaptAndBNOpt: the measured wall-clock per
// batch must satisfy the paper's cost ordering on this host too.
func TestRealAlgorithmCostOrdering(t *testing.T) {
	cost := func(algo core.Algorithm) float64 {
		r, err := MeasureBreakdown(reproWRN(4), algo, 16, 2)
		if err != nil {
			t.Fatal(err)
		}
		return r.Totals.Total()
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
