package models

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

func TestReproScaleForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, build := range []Builder{PreActResNet18, WideResNet402, ResNeXt29, MobileNetV2} {
		m := build(rng, ReproScale)
		x := tensor.New(4, 3, 32, 32)
		x.Randn(rng, 1)
		y := m.Forward(x, false)
		if y.Dim(0) != 4 || y.Dim(1) != 10 {
			t.Fatalf("%s: logits shape %v", m.Tag, y.Shape())
		}
		for _, v := range y.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite logit", m.Tag)
			}
		}
	}
}

func TestReproScaleBackwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, build := range []Builder{PreActResNet18, WideResNet402, ResNeXt29, MobileNetV2} {
		m := build(rng, ReproScale)
		x := tensor.New(2, 3, 32, 32)
		x.Randn(rng, 1)
		y := m.Forward(x, true)
		_, grad := nn.CrossEntropy(y, []int{1, 2})
		nn.ZeroGrads(m.Net)
		dx := m.Backward(grad)
		if !dx.SameShape(x) {
			t.Fatalf("%s: dx shape %v", m.Tag, dx.Shape())
		}
		for _, p := range m.Params() {
			for _, g := range p.Grad {
				if math.IsNaN(float64(g)) || math.IsInf(float64(g), 0) {
					t.Fatalf("%s: non-finite grad in %s", m.Tag, p.Name)
				}
			}
		}
	}
}

// TestBlockGradients finite-difference-checks each composite block, since
// their Backward methods hand-wire the skip connections.
func TestBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks := []struct {
		name  string
		layer nn.Layer
		inC   int
	}{
		{"preact-identity", NewPreActBlock("b", rng, 4, 4, 1), 4},
		{"preact-downsample", NewPreActBlock("b", rng, 4, 8, 2), 4},
		{"resnext-identity", NewResNeXtBlock("b", rng, 8, 4, 8, 2, 1), 8},
		{"resnext-projection", NewResNeXtBlock("b", rng, 4, 4, 8, 2, 2), 4},
		{"invres-residual", NewInvertedResidual("b", rng, 4, 4, 1, 2), 4},
		{"invres-stride", NewInvertedResidual("b", rng, 4, 6, 2, 2), 4},
		{"invres-t1", NewInvertedResidual("b", rng, 4, 4, 1, 1), 4},
	}
	for _, tc := range blocks {
		x := tensor.New(2, tc.inC, 6, 6)
		x.Randn(rng, 1)
		y := tc.layer.Forward(x, true)
		// Scalar loss: dot with fixed projection.
		w := make([]float32, y.Numel())
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		value := func(out *tensor.Tensor) float64 {
			s := 0.0
			for i, v := range out.Data {
				s += float64(v) * float64(w[i])
			}
			return s
		}
		// Snapshot BN running stats so repeated forwards are comparable.
		var snaps [][]float32
		for _, bn := range nn.BatchNorms(tc.layer) {
			snaps = append(snaps, append([]float32(nil), bn.RunningMean...),
				append([]float32(nil), bn.RunningVar...))
		}
		restore := func() {
			bns := nn.BatchNorms(tc.layer)
			for i, bn := range bns {
				copy(bn.RunningMean, snaps[2*i])
				copy(bn.RunningVar, snaps[2*i+1])
			}
		}
		forward := func() float64 {
			defer restore()
			return value(tc.layer.Forward(x, true))
		}
		nn.ZeroGrads(tc.layer)
		dx := tc.layer.Backward(tensor.FromSlice(append([]float32(nil), w...), y.Shape()...))
		restore()
		// Perturbing one input moves every activation through the BN batch
		// statistics, so a few samples inevitably cross a ReLU kink, where
		// central differences are invalid. Require 90% of samples to match.
		checked, mismatched := 0, 0
		for i := 0; i < len(x.Data); i += 7 { // sample the input gradient
			const eps = 1e-2
			old := x.Data[i]
			x.Data[i] = old + eps
			lp := forward()
			x.Data[i] = old - eps
			lm := forward()
			x.Data[i] = old
			num := (lp - lm) / (2 * eps)
			checked++
			if got := float64(dx.Data[i]); math.Abs(got-num) > 3e-2*(1+math.Abs(num)) {
				mismatched++
			}
		}
		if mismatched*10 > checked {
			t.Fatalf("%s: %d/%d sampled input gradients disagree with finite differences",
				tc.name, mismatched, checked)
		}
	}
}

func TestByTag(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tag := range []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"} {
		m, err := ByTag(tag, rng, ReproScale)
		if err != nil {
			t.Fatalf("ByTag(%s): %v", tag, err)
		}
		if m.Tag != tag {
			t.Fatalf("ByTag(%s) returned %s", tag, m.Tag)
		}
	}
	if _, err := ByTag("nope", rng, Full); err == nil {
		t.Fatal("expected error for unknown tag")
	}
}

// TestBNOrderingStable ensures BatchNorms() ordering is deterministic, as
// the adaptation algorithms index into it.
func TestBNOrderingStable(t *testing.T) {
	a := WideResNet402(rand.New(rand.NewSource(7)), ReproScale)
	b := WideResNet402(rand.New(rand.NewSource(7)), ReproScale)
	bnsA, bnsB := a.BatchNorms(), b.BatchNorms()
	if len(bnsA) != len(bnsB) || len(bnsA) == 0 {
		t.Fatalf("BN count mismatch: %d vs %d", len(bnsA), len(bnsB))
	}
	for i := range bnsA {
		if bnsA[i].Name() != bnsB[i].Name() {
			t.Fatalf("BN order differs at %d: %s vs %s", i, bnsA[i].Name(), bnsB[i].Name())
		}
	}
}

// TestModelBNLayerCounts pins the number of BN layers per full model,
// which the device model's per-layer overhead term depends on.
func TestModelBNLayerCounts(t *testing.T) {
	cases := []struct {
		build Builder
		want  int
	}{
		{PreActResNet18, 17}, // 2 per block × 8 + final
		{WideResNet402, 37},  // 2 per block × 18 + final
		{ResNeXt29, 31},      // stem + 3 per block × 9 + 3 shortcut
		{MobileNetV2, 52},    // stem + head + 17 blocks × (2 or 3)
	}
	for _, tc := range cases {
		m := tc.build(rand.New(rand.NewSource(8)), Full)
		if got := len(m.BatchNorms()); got != tc.want {
			t.Errorf("%s: %d BN layers, want %d", m.Tag, got, tc.want)
		}
	}
}
