package models_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCloneBehavesLikeItsOriginal: a model armed by an adapter and two
// batches into its episode, then cloned, runs one Forward + Backward bit for
// bit like the original — logits, input gradient (nil on both under BN-Opt),
// every parameter gradient (the frozen ones all zero) and the running
// statistics that pass leaves behind. Every BatchNorm's state is first moved
// off its constructor's values, so a field CopyState leaves out shows here.
// A clone's gradients start at zero; the original's are cleared to match.
func TestCloneBehavesLikeItsOriginal(t *testing.T) {
	builders := append(models.Registry(), models.MobileNetV2)
	for _, build := range builders {
		for _, algo := range []core.Algorithm{core.NoAdapt, core.BNNorm, core.BNOpt} {
			m := build(rand.New(rand.NewSource(5)), models.ReproScale)
			t.Run(fmt.Sprintf("%s/%s", m.Tag, algo), func(t *testing.T) {
				rng := rand.New(rand.NewSource(6))
				for i, bn := range m.BatchNorms() {
					for c := range bn.RunningMean {
						bn.RunningMean[c] = float32(rng.NormFloat64() * 0.1)
						bn.RunningVar[c] = float32(0.5 + rng.Float64())
					}
					bn.Eps, bn.Momentum = 1e-5*float32(1+i%3), 0.1+0.05*float32(i%2)
				}
				a, err := core.New(algo, m, core.Config{})
				if err != nil {
					t.Fatal(err)
				}
				batch := func() *tensor.Tensor {
					x := tensor.New(4, m.InC, m.InHW, m.InHW)
					x.Uniform(rng, 0, 1)
					return x
				}
				a.Process(batch())
				a.Process(batch())

				c := m.Clone()
				nn.ZeroGrads(m.Net)
				x, g := batch(), tensor.New(4, m.Classes)
				g.Randn(rng, 1)
				y0, y1 := m.Forward(x, false), c.Forward(x, false)
				if !sameBits(y0.Data, y1.Data) {
					t.Fatal("logits differ")
				}
				dx0, dx1 := m.Backward(g), c.Backward(g)
				if (dx0 == nil) != (dx1 == nil) || (algo == core.BNOpt) != (dx0 == nil) {
					t.Fatalf("input gradient nil: original %v, clone %v", dx0 == nil, dx1 == nil)
				}
				if dx0 != nil && !sameBits(dx0.Data, dx1.Data) {
					t.Fatal("input gradients differ")
				}
				pc := c.Params()
				for i, p := range m.Params() {
					if !sameBits(p.Grad, pc[i].Grad) {
						t.Fatalf("%s: gradients differ", p.Name)
					}
				}
				bc := c.BatchNorms()
				for i, bn := range m.BatchNorms() {
					if !sameBits(bn.RunningMean, bc[i].RunningMean) || !sameBits(bn.RunningVar, bc[i].RunningVar) {
						t.Fatalf("%s: running statistics differ", bn.Name())
					}
				}
			})
		}
	}
}

// stateHash digests everything CopyState writes into a model.
func stateHash(m *models.Model) uint64 {
	h := fnv.New64a()
	put := func(vs ...float32) {
		for _, v := range vs {
			b := math.Float32bits(v)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
		}
	}
	flag := func(b bool) float32 {
		if b {
			return 1
		}
		return 0
	}
	for _, p := range m.Params() {
		put(p.Data...)
		put(flag(p.Frozen))
	}
	for _, bn := range m.BatchNorms() {
		put(bn.RunningMean...)
		put(bn.RunningVar...)
		put(flag(bn.UseBatchStats), bn.Eps, bn.Momentum)
	}
	return h.Sum64()
}

func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestCopyStateRefusesAnotherTree: CopyState between trees whose
// parameters differ — another architecture, another scale — panics and
// writes nothing into the destination.
func TestCopyStateRefusesAnotherTree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name     string
		dst, src *models.Model
	}{
		{"WRN-AM into RXT-AM", models.ResNeXt29(rng, models.ReproScale), models.WideResNet402(rng, models.ReproScale)},
		{"repro into full", models.WideResNet402(rng, models.Full), models.WideResNet402(rng, models.ReproScale)},
	} {
		nn.FreezeExceptBN(tc.src.Net)
		for _, bn := range tc.src.BatchNorms() {
			bn.UseBatchStats = true
		}
		before := stateHash(tc.dst)
		if msg := panicMessage(func() { nn.CopyState(tc.dst.Net, tc.src.Net) }); !strings.Contains(msg, "CopyState") {
			t.Errorf("%s: CopyState did not refuse (panic %q)", tc.name, msg)
		}
		if stateHash(tc.dst) != before {
			t.Errorf("%s: the refused CopyState wrote into the destination", tc.name)
		}
	}
}

// TestCloneRefusesAModelNoBuilderMade: Clone builds the model again, so a
// hand-assembled one cannot be cloned, and the panic says which.
func TestCloneRefusesAModelNoBuilderMade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := &models.Model{Name: "micro", Tag: "MICRO", Classes: 10, InC: 3, InHW: 32,
		Net: nn.NewSequential("micro", nn.NewConv2d("c", rng, 3, 4, 3, 2, 1, 1),
			nn.NewGlobalAvgPool("gap"), nn.NewLinear("fc", rng, 4, 10))}
	if msg := panicMessage(func() { m.Clone() }); !strings.Contains(msg, `"MICRO"`) {
		t.Fatalf("Clone of a hand-built model: panic %q, want one naming its tag", msg)
	}
}
