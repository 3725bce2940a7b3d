package models

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// held returns the arena's buffers that some layer holds, by address, with
// their hold counts, read by name as poison reads the buffers.
func held(a *tensor.Arena) map[uintptr]int {
	out := map[uintptr]int{}
	bufs := reflect.ValueOf(a).Elem().FieldByName("bufs")
	for i := 0; i < bufs.Len(); i++ {
		if n := bufs.Index(i).Elem().FieldByName("holds").Int(); n > 0 {
			out[bufs.Index(i).Pointer()] = int(n)
		}
	}
	return out
}

// TestBNOptHoldsOnlyWhatBackwardReads: after a BN-Opt forward — every
// parameter but γ/β frozen — the arena holds exactly what that backward
// reads, each once: every BatchNorm's input (x̂, and the gate of a fused
// rectifier, are recomputed from it), plus the output of each BatchNorm
// that fused a residual before its rectifier (ResNeXt's bn3: the residual
// moved what the rectifier saw, so only the output knows the gate). The
// frozen convs and the linear layer hold nothing, nor does any block. The
// set is read off the model's own layers, not written down; after
// Backward nothing is held.
func TestBNOptHoldsOnlyWhatBackwardReads(t *testing.T) {
	saved := func(bn *nn.BatchNorm2d, field string) uintptr {
		return reflect.ValueOf(bn).Elem().FieldByName(field).Pointer()
	}
	for _, build := range append(Registry(), MobileNetV2) {
		m := build(rand.New(rand.NewSource(7)), ReproScale)
		nn.FreezeExceptBN(m.Net)
		for _, bn := range m.BatchNorms() {
			bn.UseBatchStats = true
		}
		rng := rand.New(rand.NewSource(8))
		x := tensor.New(3, m.InC, m.InHW, m.InHW)
		x.Uniform(rng, 0, 1)
		y := m.Forward(x, false)

		want, names := map[uintptr]int{}, map[uintptr]string{}
		for _, bn := range m.BatchNorms() {
			want[saved(bn, "in")]++
			names[saved(bn, "in")] = bn.Name() + "'s input"
		}
		nn.Walk(m.Net, func(l nn.Layer) {
			if b, ok := l.(*ResNeXtBlock); ok {
				want[saved(b.bn3, "out")]++
				names[saved(b.bn3, "out")] = b.bn3.Name() + "'s output"
			}
		})
		got := held(m.arena)
		for p, n := range want {
			if got[p] != n {
				t.Errorf("%s: %s (%#x) held %d times, want %d", m.Tag, names[p], p, got[p], n)
			}
		}
		for p, n := range got {
			if _, ok := want[p]; !ok {
				t.Errorf("%s: a buffer no BatchNorm reads back (%#x) is held %d times", m.Tag, p, n)
			}
		}

		g := tensor.New(y.Shape()...)
		g.Randn(rng, 1)
		if m.Backward(g) != nil {
			t.Fatalf("%s: a BN-Opt backward returned an input gradient", m.Tag)
		}
		if h := held(m.arena); len(h) != 0 {
			t.Errorf("%s: %d buffers still held after Backward", m.Tag, len(h))
		}
	}
}

// TestCallerHoldsNoArenaMemory: what Forward, Infer and Backward return
// survives the arena being poisoned and the next pass.
func TestCallerHoldsNoArenaMemory(t *testing.T) {
	m := WideResNet402(rand.New(rand.NewSource(3)), ReproScale)
	x := tensor.New(2, m.InC, m.InHW, m.InHW)
	x.Uniform(rand.New(rand.NewSource(4)), 0, 1)
	y := m.Forward(x, false)
	dx := m.Backward(y)
	y0, dx0 := append([]float32(nil), y.Data...), append([]float32(nil), dx.Data...)
	yi := m.Infer(x)
	poison(m.arena)
	m.Forward(x, false)
	if !bitsEqual(y.Data, y0) || !bitsEqual(yi.Data, y0) || !bitsEqual(dx.Data, dx0) {
		t.Fatal("logits or the input gradient moved when the arena was recycled")
	}
}

// TestBackwardAfterInferPanics: Infer released the activations Backward
// would read, so Backward refuses by name instead of reading them; Forward
// puts the model back in order.
func TestBackwardAfterInferPanics(t *testing.T) {
	m := ResNeXt29(rand.New(rand.NewSource(1)), ReproScale)
	x := tensor.New(2, m.InC, m.InHW, m.InHW)
	y := m.Infer(x)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "Backward after Infer") || !strings.Contains(msg, m.Name) {
				t.Fatalf("Backward after Infer: recovered %q, want a panic naming the model and the misuse", msg)
			}
		}()
		m.Backward(y)
	}()
	if dx := m.Backward(m.Forward(x, false)); dx == nil {
		t.Fatal("Backward after a Forward that followed an Infer returned no gradient")
	}
}

// TestInferNormalizesInPlace: under Infer every BatchNorm whose input has
// no other reader writes its output over that input — each conv→BN pair of
// a block (convBN, PreActBlock's bn2) and each BatchNorm of a Sequential
// whose input the chain made — and only a PreActBlock's bn1, whose input is
// also the block's shortcut, keeps it. Under Forward none does: Backward
// reads the input.
func TestInferNormalizesInPlace(t *testing.T) {
	for _, tag := range []string{"RXT-AM", "WRN-AM", "MBV2"} {
		m, err := ByTag(tag, rand.New(rand.NewSource(1)), ReproScale)
		if err != nil {
			t.Fatal(err)
		}
		keeps := map[*nn.BatchNorm2d]bool{}
		nn.Walk(m.Net, func(l nn.Layer) {
			if b, ok := l.(*PreActBlock); ok {
				keeps[b.bn1] = true
			}
		})
		x := tensor.New(2, m.InC, m.InHW, m.InHW)
		x.Randn(rand.New(rand.NewSource(2)), 1)
		m.Infer(x)
		for _, bn := range m.BatchNorms() {
			if bn.InPlace() == keeps[bn] {
				t.Errorf("%s: %s under Infer: in place %v, want %v", tag, bn.Name(), bn.InPlace(), !keeps[bn])
			}
		}
		m.Forward(x, false)
		for _, bn := range m.BatchNorms() {
			if bn.InPlace() {
				t.Errorf("%s: %s wrote over its input under Forward", tag, bn.Name())
			}
		}
	}
}

// TestArenaRetention drives batch sizes 4 → 32 → 4 → 32 through one model
// and holds ActivationBytes to the bound tensor.Arena documents: never
// more than the pass in progress and the one before it need, and exactly
// one pass's worth once two passes in a row have the same shapes — a burst
// of large batches is given back one pass after it ends.
func TestArenaRetention(t *testing.T) {
	for _, infer := range []bool{false, true} {
		build := func() *Model { return WideResNet402(rand.New(rand.NewSource(2)), ReproScale) }
		pass := func(m *Model, n int) int {
			x := tensor.New(n, m.InC, m.InHW, m.InHW)
			if infer {
				m.Infer(x)
			} else {
				m.Backward(m.Forward(x, false))
			}
			return m.ActivationBytes()
		}
		need := map[int]int{4: pass(build(), 4), 32: pass(build(), 32)}
		// Activations grow with the batch, a conv's dW partials with
		// min(batch, 16), its other transients not at all.
		if need[4] == 0 || need[32] < 4*need[4] {
			t.Fatalf("infer=%v: a pass holds %d bytes at batch 4 and %d at 32, want nonzero and well over 4× apart", infer, need[4], need[32])
		}
		m, prev := build(), 0
		for i, n := range []int{4, 32, 4, 32, 32, 4, 4} {
			got := pass(m, n)
			switch {
			case n == prev && got != need[n]:
				t.Fatalf("infer=%v pass %d: %d bytes held after two passes at batch %d, want exactly one pass's %d", infer, i, got, n, need[n])
			case got > need[n]+need[prev]:
				t.Fatalf("infer=%v pass %d: %d bytes held at batch %d after batch %d, want ≤ %d + %d", infer, i, got, n, prev, need[n], need[prev])
			}
			prev = n
		}
		if infer {
			// What Infer is for: the pass holds a few buffers per
			// resolution, not the graph (three blocks deep here; the
			// ratio falls with depth).
			fm := build()
			fm.Forward(tensor.New(32, fm.InC, fm.InHW, fm.InHW), false)
			if full := fm.ActivationBytes(); 3*need[32] > 2*full {
				t.Fatalf("an Infer pass holds %d bytes, a Forward %d: want under two thirds", need[32], full)
			}
		}
	}
}
