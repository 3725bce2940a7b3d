package profile

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/telemetry"
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

// TestPhaseTotalsAreAViewOfTheSpans: the profiler's totals are the
// tracer's running span totals, so they equal the nn spans a trace writes,
// to the nanosecond; an event bound that drops spans drops no calls; and
// StopProfiling removes only a tracer that StartProfiling installed.
func TestPhaseTotalsAreAViewOfTheSpans(t *testing.T) {
	prior := telemetry.StopTracing()
	defer func() {
		if prior != nil {
			telemetry.StartTracing()
		}
	}()
	adapter, err := core.New(core.BNOpt, reproWRN(5), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 32, 32)
	for i := range x.Data {
		x.Data[i] = float32(i%89) / 89
	}
	adapter.Process(x) // warm-up, untraced
	// profiled runs one BN-Opt pass under the caller's tracer tr.
	profiled := func(tr *telemetry.Tracer) nn.PhaseTotals {
		t.Helper()
		if !nn.StartProfiling() {
			t.Fatal("another profiler collection is active")
		}
		adapter.Process(x)
		got := nn.StopProfiling()
		if telemetry.StopTracing() != tr {
			t.Fatal("StopProfiling removed the caller's tracer")
		}
		return got
	}
	tr := telemetry.StartTracingLimit(math.MaxInt)
	full := profiled(tr)

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat string
			Dur       float64 // µs to the nanosecond
		}
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type sum struct {
		calls int
		dur   time.Duration
	}
	spans := map[string]sum{}
	for _, e := range doc.TraceEvents {
		if e.Cat == "nn" {
			s := spans[e.Name]
			spans[e.Name] = sum{s.calls + 1, s.dur + time.Duration(math.Round(e.Dur*1e3))}
		}
	}
	for k := nn.KindOther; k <= nn.KindPack; k++ {
		for _, dir := range []struct {
			name  string
			sec   map[nn.Kind]float64
			calls map[nn.Kind]int
		}{{k.String() + ".fw", full.FwSeconds, full.FwCalls}, {k.String() + ".bw", full.BwSeconds, full.BwCalls}} {
			sec, ran := dir.sec[k]
			got, want := sum{dir.calls[k], time.Duration(math.Round(sec * 1e9))}, spans[dir.name]
			if got != want || ran != (want.calls > 0) {
				t.Errorf("%s: profiled %d calls, %v (entry %v); spans %d, %v", dir.name, got.calls, got.dur, ran, want.calls, want.dur)
			}
		}
	}
	if full.BwCalls[nn.KindConv] == 0 || full.BwCalls[nn.KindBN] == 0 {
		t.Fatalf("a BN-Opt pass recorded no backward: %v", full.BwCalls)
	}

	bounded := telemetry.StartTracingLimit(1)
	few := profiled(bounded)
	if bounded.Dropped() == 0 {
		t.Error("a one-event bound dropped nothing")
	}
	for k := nn.KindOther; k <= nn.KindPack; k++ {
		if few.FwCalls[k] != full.FwCalls[k] || few.BwCalls[k] != full.BwCalls[k] {
			t.Errorf("%v calls under a one-event bound: %d/%d, unbounded %d/%d",
				k, few.FwCalls[k], few.BwCalls[k], full.FwCalls[k], full.BwCalls[k])
		}
	}

	if !nn.StartProfiling() || telemetry.ActiveTracer() == nil {
		t.Fatal("StartProfiling with no tracer installed none")
	}
	nn.StopProfiling()
	if telemetry.ActiveTracer() != nil {
		t.Error("StopProfiling left the tracer it installed")
	}
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
	// (and skipped at the stem), so the ratio sits near 1; the strip-mined
	// lowering the strided dX once ran read 6–7. The bounds only reject a
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
// satisfy the paper's cost ordering on this host too. A measurement is a
// few milliseconds, so one descheduling on a busy host can outweigh the
// gap between two algorithms: the three are measured in interleaved
// rounds and each keeps its fastest round, the cost with the least
// outside time in it.
func TestRealAlgorithmCostOrdering(t *testing.T) {
	const rounds = 5
	algos := []core.Algorithm{core.NoAdapt, core.BNNorm, core.BNOpt}
	best := make([]float64, len(algos))
	for r := 0; r < rounds; r++ {
		for i, algo := range algos {
			c := measure(t, reproWRN(4), algo, 16, 2).Total()
			if r == 0 || c < best[i] {
				best[i] = c
			}
		}
	}
	na, bn, bo := best[0], best[1], best[2]
	t.Logf("measured (fastest of %d rounds): no-adapt %.4fs, bn-norm %.4fs, bn-opt %.4fs", rounds, na, bn, bo)
	if !(bo > bn) {
		t.Fatalf("BN-Opt (%.4f) must cost more than BN-Norm (%.4f)", bo, bn)
	}
	if !(bo > na) {
		t.Fatalf("BN-Opt (%.4f) must cost more than No-Adapt (%.4f)", bo, na)
	}
}
