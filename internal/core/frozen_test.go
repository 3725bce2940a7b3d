package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestBNOptFrozenMatchesFullBackward is the frozen-aware backward's
// contract at the adapter level: BN-Opt over a frozen model adapts bit for
// bit like the reference that runs the same backward with every gradient
// computed and simply never reads the conv/linear ones — logits and the
// captured state, batch after batch.
func TestBNOptFrozenMatchesFullBackward(t *testing.T) {
	for _, build := range models.Registry() {
		m := build(rand.New(rand.NewSource(17)), models.ReproScale)
		ref := m.Clone()
		frozen, err := New(BNOpt, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(BNOpt, ref, Config{})
		if err != nil {
			t.Fatal(err)
		}
		nn.Unfreeze(ref.Net) // the reference computes dW and the input's dX, and discards them
		rng := rand.New(rand.NewSource(19))
		for batch := 0; batch < 5; batch++ {
			x := tensor.New(6, 3, 32, 32)
			x.Uniform(rng, 0, 1)
			got, want := frozen.Process(x), full.Process(x)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s batch %d: logit %d differs from the full-backward reference", m.Tag, batch, i)
				}
			}
			if !stateEqual(frozen.(Stateful).CaptureState(), full.(Stateful).CaptureState()) {
				t.Fatalf("%s batch %d: adapter state differs from the full-backward reference", m.Tag, batch)
			}
		}
		for _, p := range m.Params() {
			if !p.Frozen {
				continue
			}
			for _, g := range p.Grad {
				if g != 0 {
					t.Fatalf("%s: BN-Opt wrote the gradient of frozen %s", m.Tag, p.Name)
				}
			}
		}
	}
}

// TestBNOptStepSpansOncePerConv guards the profiler's attribution now that
// the input gradient runs on the forward kernels: one BN-Opt step is one
// conv.fw and one conv.bw span per conv layer — no forward span from inside
// backward — and the copies of a dX (staging dY, interleaving residues)
// show up as one pack.bw per conv only.
func TestBNOptStepSpansOncePerConv(t *testing.T) {
	m := tinyModel(21)
	a, err := New(BNOpt, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 3, 32, 32)
	x.Uniform(rand.New(rand.NewSource(23)), 0, 1)
	a.Process(x) // build the plans and fill the arena: their one-off cost is not the subject

	prior := telemetry.StopTracing()
	defer func() {
		if prior != nil {
			telemetry.StartTracing()
		}
	}()
	tr := telemetry.StartTracing()
	if tr == nil {
		t.Fatal("StartTracing failed")
	}
	a.Process(x)
	telemetry.StopTracing()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Args struct{ Layer, Fused string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]int{}
	fused := map[string]map[string]int{} // span name → rectifier named by the fused arg
	for _, e := range trace.TraceEvents {
		if spans[e.Name] == nil {
			spans[e.Name], fused[e.Name] = map[string]int{}, map[string]int{}
		}
		spans[e.Name][e.Args.Layer]++
		if e.Args.Fused != "" {
			fused[e.Name][e.Args.Fused]++
		}
	}
	convs, stagedDX := 0, 0
	nn.Walk(m.Net, func(l nn.Layer) {
		c, ok := l.(*nn.Conv2d)
		if !ok {
			return
		}
		convs++
		// A dX copies when its plan stages dY or interleaves residues;
		// conv1 is the graph input: no dX.
		if p := tensor.NewConvGradPlan(c.ConvShape()); p.StagedLen()+p.SplitLen() > 0 && c.Name() != "conv1" {
			stagedDX++
		}
		if fw, bw := spans["conv.fw"][c.Name()], spans["conv.bw"][c.Name()]; fw != 1 || bw != 1 {
			t.Errorf("%s: %d conv.fw and %d conv.bw spans in one step, want 1 and 1", c.Name(), fw, bw)
		}
	})
	if convs == 0 || stagedDX == 0 {
		t.Fatal("model has no conv with a staged input-gradient convolution")
	}
	if tensor.PackedEnabled() && spans["pack.bw"][""] != stagedDX {
		t.Errorf("pack.bw spans = %d, want one per staged input-gradient conv (%d)", spans["pack.bw"][""], stagedDX)
	}
	// Every ReLU of this model follows a BatchNorm and runs inside its
	// fused pass, so the step is one bn.fw and one bn.bw span per BN, each
	// naming its rectifier, and no act span at all: the rectifier's time is
	// inside the bn interval, not lost.
	nn.Walk(m.Net, func(l nn.Layer) {
		switch l := l.(type) {
		case *nn.BatchNorm2d:
			if fw, bw := spans["bn.fw"][l.Name()], spans["bn.bw"][l.Name()]; fw != 1 || bw != 1 {
				t.Errorf("%s: %d bn.fw and %d bn.bw spans in one step, want 1 and 1", l.Name(), fw, bw)
			}
		case *nn.ReLU:
			if fw, bw := fused["bn.fw"][l.Name()], fused["bn.bw"][l.Name()]; fw != 1 || bw != 1 {
				t.Errorf("%s: named by %d bn.fw and %d bn.bw spans, want 1 and 1", l.Name(), fw, bw)
			}
		}
	})
	if n := len(spans["act.fw"]) + len(spans["act.bw"]); n != 0 {
		t.Errorf("%d layers emitted act spans; every rectifier here is fused into a bn span", n)
	}
}
