package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/nn"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestBNOptStepSpansOncePerConv guards the profiler's attribution now that
// the input gradient runs on the forward kernels: one BN-Opt step is one
// conv.fw and one conv.bw span per conv layer — no forward span from inside
// backward — and the copies of a dX (staging dY, interleaving residues)
// show up as one pack.bw per conv that makes them, naming it.
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
			Args struct{ Layer string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	spans := map[string]map[string]int{}
	for _, e := range trace.TraceEvents {
		if spans[e.Name] == nil {
			spans[e.Name] = map[string]int{}
		}
		spans[e.Name][e.Args.Layer]++
	}
	convs, stagedDX := 0, 0
	nn.Walk(m.Net, func(l nn.Layer) {
		c, ok := l.(*nn.Conv2d)
		if !ok {
			return
		}
		convs++
		// A dX copies when its plan stages dY or interleaves residues;
		// conv1 is the graph input: no dX. A block's strided 1×1 shortcut
		// hands its dX over on the stride grid (BackwardSampled), where the
		// branch conv's dX takes it before its own interleave: no copy.
		copies := 0
		p := tensor.NewConvGradPlan(c.Spec().Conv)
		interleaves := p.SplitLen() > 0 && !strings.HasSuffix(c.Name(), ".shortcut")
		if (p.StagedLen() > 0 || interleaves) && c.Name() != "conv1" {
			stagedDX, copies = stagedDX+1, 1
		}
		if n := spans["pack.bw"][c.Name()]; n != copies {
			t.Errorf("%s: %d pack.bw spans in one step, want %d", c.Name(), n, copies)
		}
		if fw, bw := spans["conv.fw"][c.Name()], spans["conv.bw"][c.Name()]; fw != 1 || bw != 1 {
			t.Errorf("%s: %d conv.fw and %d conv.bw spans in one step, want 1 and 1", c.Name(), fw, bw)
		}
	})
	if convs == 0 || stagedDX == 0 {
		t.Fatal("model has no conv with a staged input-gradient convolution")
	}
	packs := 0
	for _, n := range spans["pack.bw"] {
		packs += n
	}
	if packs != stagedDX {
		t.Errorf("pack.bw spans = %d, want one per staged input-gradient conv (%d)", packs, stagedDX)
	}
	// Every rectifier of this model is the epilogue of a BatchNorm, so the
	// step is one bn.fw and one bn.bw span per BN and no act span at all:
	// the rectifier's time is inside the bn interval, not lost.
	for _, bn := range m.BatchNorms() {
		if fw, bw := spans["bn.fw"][bn.Name()], spans["bn.bw"][bn.Name()]; fw != 1 || bw != 1 {
			t.Errorf("%s: %d bn.fw and %d bn.bw spans in one step, want 1 and 1", bn.Name(), fw, bw)
		}
	}
	if n := len(spans["act.fw"]) + len(spans["act.bw"]); n != 0 {
		t.Errorf("%d layers emitted act spans; every rectifier here runs in a bn span", n)
	}
}
