package nn

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/parallel"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// buildParityNet constructs a small conv/BN/ReLU stack with deterministic
// weights.
func buildParityNet(seed int64) *Sequential {
	rng := rand.New(rand.NewSource(seed))
	return NewSequential("parity",
		NewConv2d("conv1", rng, 3, 8, 3, 1, 1, 1),
		NewBatchNorm2d("bn1", 8, relu),
		NewConv2d("conv2", rng, 8, 8, 3, 1, 1, 1),
		NewBatchNorm2d("bn2", 8, relu),
	)
}

func parityInput(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(2, 3, 8, 8)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	return x
}

// TestPackSpansNameAnEnclosingConv: every staging span names the conv that
// made it, and that conv's span in the same direction encloses it, so a
// trace attributes staging per layer from the span's own args. One worker:
// a pack span's length is a sum over workers, which fits inside the conv's
// interval only when there is one.
func TestPackSpansNameAnEnclosingConv(t *testing.T) {
	defer parallel.SetWorkers(0)
	parallel.SetWorkers(1)
	prior := telemetry.StopTracing()
	defer func() {
		if prior != nil {
			telemetry.StartTracing()
		}
	}()
	rng := rand.New(rand.NewSource(3))
	net := NewSequential("packs",
		NewConv2d("padded", rng, 3, 8, 3, 1, 1, 1),   // input and dY staged
		NewConv2d("strided", rng, 8, 8, 3, 2, 1, 1),  // dY staged, residues interleaved
		NewConv2d("shortcut", rng, 8, 8, 1, 2, 0, 1), // one residue, odd columns zero
	)
	tr := telemetry.StartTracing()
	if tr == nil {
		t.Fatal("StartTracing failed")
	}
	y := net.Forward(parityInput(5), true)
	g := tensor.New(y.Shape()...)
	for i := range g.Data {
		g.Data[i] = float32(i%7) * 0.1
	}
	net.Backward(g)
	telemetry.StopTracing()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64
			Args    struct{ Layer string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	named := map[string]map[string]bool{"pack.fw": {}, "pack.bw": {}}
	for _, p := range trace.TraceEvents {
		dir, ok := strings.CutPrefix(p.Name, "pack")
		if !ok {
			continue
		}
		enclosed := false
		for _, c := range trace.TraceEvents {
			enclosed = enclosed || c.Name == "conv"+dir && c.Args.Layer == p.Args.Layer && c.Ts <= p.Ts && p.Ts+p.Dur <= c.Ts+c.Dur
		}
		if !enclosed {
			t.Errorf("%s span naming %q [%v, +%v µs] lies in no conv%s span of that layer", p.Name, p.Args.Layer, p.Ts, p.Dur, dir)
		}
		named[p.Name][p.Args.Layer] = true
	}
	for span, layers := range named {
		if len(layers) != 3 || !layers["padded"] || !layers["strided"] || !layers["shortcut"] {
			t.Errorf("%s spans name %v, want each of the three convs", span, layers)
		}
	}
}
