package models

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"edgetta/internal/nn"
	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

// poison fills every buffer the arena holds, handed out or not, with NaN,
// and arms the arena to do the same to each buffer the moment it is
// released during the passes that follow: a layer that reads an
// activation after it went back — one it should have held — reads NaN at
// once, not only after the buffer is handed out again. The arena keeps no
// walk of its own for this; the test reads its one list and sets its one
// hook by name and fails loudly if either is renamed.
func poison(a *tensor.Arena) (buffers int) {
	if a == nil { // before the model's first pass
		return 0
	}
	arena := reflect.ValueOf(a).Elem()
	hook := arena.FieldByName("onRelease")
	reflect.NewAt(hook.Type(), unsafe.Pointer(hook.UnsafeAddr())).Elem().Set(reflect.ValueOf(fillNaN))
	bufs := arena.FieldByName("bufs")
	for i := 0; i < bufs.Len(); i++ {
		data := bufs.Index(i).Elem().FieldByName("Data")
		fillNaN(unsafe.Slice((*float32)(data.UnsafePointer()), data.Len()))
	}
	return bufs.Len()
}

func fillNaN(s []float32) {
	nan := float32(math.NaN())
	for j := range s {
		s[j] = nan
	}
}

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

// arenaModels is every block type and both shortcut kinds: the registry
// plus MobileNetV2.
var arenaModels = append(Registry(), MobileNetV2)

// TestArenaPoisonParity: a model on its arena is bit-equal — logits, every
// parameter gradient, the input gradient — to a clone whose layers were
// never attached to one and so allocate zeroed tensors, with every arena
// buffer filled with NaN between passes: nothing reads memory it did not
// write in the same pass, nothing is released before its last reader, and a
// change of batch size finds no stale buffer. The convs' transient buffers
// are arena memory like any other — the staged image, the rotated dX
// kernel, the strips of the grouped and strided dX (ResNeXt, MobileNetV2,
// every downsampling block), the dW partials of the unfrozen backward — one
// per range of the loop that uses them; nine images on eight workers make
// ranges of two, so a body must find its own. Covered: unfrozen and BN-only
// backward, the no-backward pass, one and eight workers.
func TestArenaPoisonParity(t *testing.T) {
	defer parallel.SetWorkers(0)
	modes := []struct {
		name            string
		freeze, noBackw bool
	}{{"full", false, false}, {"frozen", true, false}, {"infer", false, true}}
	for _, build := range arenaModels {
		for _, mode := range modes {
			for _, workers := range []int{1, 8} {
				parallel.SetWorkers(workers)
				m := build(rand.New(rand.NewSource(5)), ReproScale)
				rng := rand.New(rand.NewSource(6))
				for _, bn := range m.BatchNorms() {
					bn.UseBatchStats = true
					for c := range bn.Gamma.Data {
						bn.Gamma.Data[c] = float32(1 + 0.3*rng.NormFloat64())
						bn.Beta.Data[c] = float32(0.3 * rng.NormFloat64())
					}
				}
				if mode.freeze {
					nn.FreezeExceptBN(m.Net)
				}
				ref := m.Clone()
				for pass, n := range []int{2, 9, 2} {
					at := fmt.Sprintf("%s %s workers=%d pass %d (batch %d)", m.Tag, mode.name, workers, pass, n)
					x := tensor.New(n, m.InC, m.InHW, m.InHW)
					x.Uniform(rng, 0, 1)
					if got := poison(m.arena); pass > 0 && got == 0 {
						t.Fatalf("%s: the arena holds no buffer to poison", at)
					}
					var y *tensor.Tensor
					if mode.noBackw {
						y = m.Infer(x)
					} else {
						y = m.Forward(x, false)
					}
					yRef := ref.Net.Forward(x, false)
					if !bitsEqual(y.Data, yRef.Data) {
						t.Fatalf("%s: logits differ from the model without an arena", at)
					}
					if mode.noBackw {
						continue
					}
					g := tensor.New(y.Shape()...)
					g.Randn(rng, 1)
					nn.ZeroGrads(m.Net)
					nn.ZeroGrads(ref.Net)
					dx, dxRef := m.Backward(g), ref.Net.Backward(g)
					if (dx == nil) != mode.freeze || (dxRef == nil) != mode.freeze {
						t.Fatalf("%s: input gradient nil = %v/%v, want %v", at, dx == nil, dxRef == nil, mode.freeze)
					}
					if dx != nil && !bitsEqual(dx.Data, dxRef.Data) {
						t.Fatalf("%s: input gradient differs from the model without an arena", at)
					}
					pr := ref.Params()
					for i, p := range m.Params() {
						if !bitsEqual(p.Grad, pr[i].Grad) {
							t.Fatalf("%s: %s gradient differs from the model without an arena", at, p.Name)
						}
					}
				}
			}
		}
	}
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
	for _, build := range arenaModels {
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
