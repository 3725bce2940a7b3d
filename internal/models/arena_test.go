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

// poison fills every buffer the arena holds, handed out or not, with NaN.
// The arena keeps no walk of its own for this; the test reads its one list
// by name and fails loudly if that is renamed.
func poison(a *tensor.Arena) (buffers int) {
	if a == nil { // before the model's first pass
		return 0
	}
	bufs := reflect.ValueOf(a).Elem().FieldByName("bufs")
	nan := float32(math.NaN())
	for i := 0; i < bufs.Len(); i++ {
		data := bufs.Index(i).Elem().FieldByName("Data")
		s := unsafe.Slice((*float32)(data.UnsafePointer()), data.Len())
		for j := range s {
			s[j] = nan
		}
	}
	return bufs.Len()
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
// a block (convBN, PreActBlock's bn2) and each BN+ReLU pair of a Sequential
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
