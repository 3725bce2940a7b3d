package models

import (
	"math/rand"
	"testing"

	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// mutableSlices gathers every mutable backing array of the model: parameter
// data and gradients, plus BatchNorm statistics buffers.
func mutableSlices(m *Model) [][]float32 {
	var out [][]float32
	for _, p := range m.Params() {
		out = append(out, p.Data, p.Grad)
	}
	for _, bn := range m.BatchNorms() {
		out = append(out, bn.RunningMean, bn.RunningVar)
	}
	return out
}

// TestCloneSharesNoBackingArrays is the replica-manager contract: a clone
// must be structurally identical but alias none of the original's mutable
// memory, so concurrent adaptation on clones cannot interfere.
func TestCloneSharesNoBackingArrays(t *testing.T) {
	builders := map[string]Builder{
		"R18": PreActResNet18, "WRN": WideResNet402,
		"RXT": ResNeXt29, "MBV2": MobileNetV2,
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			m := build(rand.New(rand.NewSource(7)), ReproScale)
			c := m.Clone()

			orig, cl := mutableSlices(m), mutableSlices(c)
			if len(orig) != len(cl) {
				t.Fatalf("clone has %d mutable slices, original %d", len(cl), len(orig))
			}
			for i := range orig {
				if len(orig[i]) != len(cl[i]) {
					t.Fatalf("slice %d: length %d vs %d", i, len(orig[i]), len(cl[i]))
				}
				if len(orig[i]) > 0 && &orig[i][0] == &cl[i][0] {
					t.Fatalf("slice %d aliases the original's backing array", i)
				}
			}

			// Mutating every clone slice must leave the original untouched.
			before := make([][]float32, len(orig))
			for i, s := range orig {
				before[i] = append([]float32(nil), s...)
			}
			for _, s := range cl {
				for i := range s {
					s[i] += 1
				}
			}
			for i, s := range orig {
				for j := range s {
					if s[j] != before[i][j] {
						t.Fatalf("mutating clone changed original slice %d[%d]", i, j)
					}
				}
			}
		})
	}
}

// TestCloneParamNamesAndStructure checks the clone exposes the same
// parameter set in the same order — the property state snapshot/restore
// across replicas depends on.
func TestCloneParamNamesAndStructure(t *testing.T) {
	m := WideResNet402(rand.New(rand.NewSource(3)), ReproScale)
	c := m.Clone()
	po, pc := m.Params(), c.Params()
	if len(po) != len(pc) {
		t.Fatalf("param count %d vs %d", len(po), len(pc))
	}
	for i := range po {
		if po[i].Name != pc[i].Name {
			t.Fatalf("param %d name %q vs %q", i, po[i].Name, pc[i].Name)
		}
	}
	if len(m.BatchNorms()) != len(c.BatchNorms()) {
		t.Fatalf("BN count differs")
	}
	var no, nc int
	nn.Walk(m.Net, func(nn.Layer) { no++ })
	nn.Walk(c.Net, func(nn.Layer) { nc++ })
	if no != nc {
		t.Fatalf("layer count %d vs %d", no, nc)
	}
}

// TestClonePackedWeightCacheSharedUntilUpdate: a clone's outputs and input
// gradients are bit-identical to the original's until one side's weights
// are written, and a write on one side — nobody is told — moves that side
// only. (No layer keeps a copy derived from its weights, so there is
// nothing to share or invalidate; the name is kept for the test ledger.)
func TestClonePackedWeightCacheSharedUntilUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := WideResNet402(rng, ReproScale)
	x := tensor.New(2, m.InC, m.InHW, m.InHW)
	x.Uniform(rand.New(rand.NewSource(72)), 0, 1)
	pass := func(m *Model) (y, dx []float32) {
		out := m.Forward(x, false)
		return out.Data, m.Backward(out).Data
	}
	pass(m)
	c := m.Clone()

	y0, dx0 := pass(m)
	y1, dx1 := pass(c)
	if !bitsEqual(y0, y1) || !bitsEqual(dx0, dx1) {
		t.Fatal("clone forward or input gradient differs before any update")
	}

	// Scale one conv weight on the clone — a conv whose input gradient runs
	// on the rotated kernel. The clone must diverge; the original must not
	// move.
	var conv *nn.Conv2d
	nn.Walk(c.Net, func(l nn.Layer) {
		if cv, ok := l.(*nn.Conv2d); ok && conv == nil && cv.Groups == 1 && cv.Stride == 1 && cv.Name() != "conv1" {
			conv = cv
		}
	})
	if conv == nil {
		t.Fatal("no stride-1 ungrouped conv found")
	}
	for i := range conv.Weight.Data {
		conv.Weight.Data[i] *= 2
	}

	y0b, dx0b := pass(m)
	y1b, dx1b := pass(c)
	if !bitsEqual(y0b, y0) || !bitsEqual(dx0b, dx0) {
		t.Fatal("original moved after clone-side update")
	}
	if bitsEqual(y1b, y1) {
		t.Fatal("clone forward unchanged despite weight update")
	}
	// The same gradient through the updated clone, on the kernel and on the
	// oracle: a rotated kernel that outlived the update would separate them.
	defer tensor.SetPacked(tensor.PackedEnabled())
	tensor.SetPacked(false)
	if _, oracle := pass(c); !bitsEqual(dx1b, oracle) {
		t.Fatal("clone input gradient served a stale rotated kernel after the update")
	}
}

// BenchmarkModelClone times Model.Clone — what a replica respawn and every
// serving group's template copy cost — for the two ledger models at both
// scales.
func BenchmarkModelClone(b *testing.B) {
	for _, build := range []Builder{WideResNet402, ResNeXt29} {
		for _, scale := range []struct {
			name  string
			scale Scale
		}{{"repro", ReproScale}, {"full", Full}} {
			m := build(rand.New(rand.NewSource(1)), scale.scale)
			b.Run(m.Tag+"/"+scale.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					m.Clone()
				}
			})
		}
	}
}
