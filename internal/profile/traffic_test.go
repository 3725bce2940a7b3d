package profile

import (
	"math/rand"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// TestModelsRunOnlyWhatTheKernelsServe is a tripwire on the traffic nn and
// tensor keep code for. The four models, at full scale (Get's traces) and
// at repro scale, build only conv, BatchNorm, global-pool and linear
// leaves; a conv takes the network's input, so it is the layer whose dX
// FreezeExceptBN skips; every BatchNorm plane is a whole number of
// StatLanes, so the AVX2 plane routines take each channel whole; and no
// algorithm's Process records an act span, every rectifier being a
// BatchNorm's epilogue. A model that breaks one of these needs code nn and
// tensor do not carry.
func TestModelsRunOnlyWhatTheKernelsServe(t *testing.T) {
	for _, tag := range []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"} {
		full, err := Get(tag)
		if err != nil {
			t.Fatal(err)
		}
		build := func() *models.Model {
			m, err := models.ByTag(tag, rand.New(rand.NewSource(1)), models.ReproScale)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		m := build()
		checkTraffic(t, tag+" full", full.Trace)
		checkTraffic(t, tag+" repro", Capture(m))

		nn.Walk(m.Net, func(l nn.Layer) {
			switch l.(type) {
			case nn.Container, *nn.Conv2d, *nn.BatchNorm2d, *nn.GlobalAvgPool, *nn.Linear:
			default:
				t.Errorf("%s: leaf %s is a %T", tag, l.Name(), l)
			}
		})
		in := m.Net // the layer FreezeExceptBN marks: the head of nested Sequentials
		for s, ok := in.(*nn.Sequential); ok && len(s.Children()) > 0; s, ok = in.(*nn.Sequential) {
			in = s.Children()[0]
		}
		if _, ok := in.(*nn.Conv2d); !ok {
			t.Errorf("%s: the layer at the input is a %T, want a *nn.Conv2d", tag, in)
		}

		for _, algo := range core.Algorithms {
			m := build()
			adapter, err := core.New(algo, m, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(2, m.InC, m.InHW, m.InHW)
			x.Randn(rand.New(rand.NewSource(2)), 1)
			if !nn.StartProfiling() {
				t.Fatal("another profiler collection is active")
			}
			adapter.Process(x)
			got := nn.StopProfiling()
			if got.FwCalls[nn.KindBN] == 0 {
				t.Fatalf("%s %v: the profile recorded no BatchNorm forward", tag, algo)
			}
			if n := got.FwCalls[nn.KindAct] + got.BwCalls[nn.KindAct]; n != 0 {
				t.Errorf("%s %v: %d act spans, want every rectifier inside a bn span", tag, algo, n)
			}
		}
	}
}

// checkTraffic holds a single-image trace to the layer kinds the models
// may run, a conv first, and BatchNorm planes of whole StatLanes.
func checkTraffic(t *testing.T, what string, tr Trace) {
	t.Helper()
	if len(tr) == 0 || tr[0].Kind != nn.KindConv {
		t.Errorf("%s: the trace does not start with a conv", what)
	}
	for _, l := range tr {
		switch l.Kind {
		case nn.KindConv, nn.KindPool, nn.KindLinear:
		case nn.KindBN:
			if plane := l.OutElems / l.BNChannels; plane%tensor.StatLanes != 0 {
				t.Errorf("%s: %s has planes of %d elements, not a multiple of %d", what, l.LayerName, plane, tensor.StatLanes)
			}
		default:
			t.Errorf("%s: %s is of kind %v", what, l.LayerName, l.Kind)
		}
	}
}
