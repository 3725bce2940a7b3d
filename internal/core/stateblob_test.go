package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/serialize"
	"edgetta/internal/tensor"
)

// adapted builds an adapter over a fresh tiny model and runs a few batches
// through it, so its state is non-trivial.
func adapted(t *testing.T, algo Algorithm) Stateful {
	t.Helper()
	a, err := New(algo, tinyModel(7), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sa, ok := a.(Stateful)
	if !ok {
		t.Fatalf("%v is not stateful", algo)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		x := tensor.New(4, 3, 32, 32)
		x.Randn(rng, 1)
		a.Process(x)
	}
	return sa
}

// adaptedState is the captured state of adapted.
func adaptedState(t *testing.T, algo Algorithm) *AdapterState {
	t.Helper()
	return adapted(t, algo).CaptureState()
}

// edited returns a copy of s with one value of the named tensor replaced.
func edited(t *testing.T, s *AdapterState, name string, v float32) *AdapterState {
	t.Helper()
	out := &AdapterState{s.layout, append([]float32(nil), s.vec...)}
	_, tensors, err := FlattenState(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range tensors {
		if ts.Name == name {
			ts.Data[0] = v
			return out
		}
	}
	t.Fatalf("state has no tensor %q", name)
	return nil
}

func bitsEqual(a, b []float32) bool {
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

func stateEqual(a, b *AdapterState) bool {
	ka, ta, err := FlattenState(a)
	if err != nil {
		return false
	}
	kb, tb, err := FlattenState(b)
	if err != nil || ka != kb || len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i].Name != tb[i].Name || !bitsEqual(ta[i].Data, tb[i].Data) {
			return false
		}
	}
	return true
}

func TestFlattenRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		algo Algorithm
		kind string
	}{{BNNorm, StateKindBN}, {BNOpt, StateKindBNOpt}} {
		s := adaptedState(t, tc.algo)
		kind, tensors, err := FlattenState(s)
		if err != nil {
			t.Fatalf("%v: FlattenState: %v", tc.algo, err)
		}
		if kind != tc.kind {
			t.Fatalf("%v: kind %q, want %q", tc.algo, kind, tc.kind)
		}
		back, err := UnflattenState(s, kind, tensors)
		if err != nil {
			t.Fatalf("%v: UnflattenState: %v", tc.algo, err)
		}
		if !stateEqual(s, back) || !bitsEqual(s.vec, back.vec) {
			t.Fatalf("%v: round trip is not byte-identical", tc.algo)
		}
		if &s.vec[0] == &back.vec[0] {
			t.Fatalf("%v: the unflattened state aliases the tensors it was read from", tc.algo)
		}
	}
	if _, _, err := FlattenState(nil); err == nil {
		t.Fatal("flattening no state must fail")
	}
}

// Adam's step count must survive exactly even where float32(t) would
// round: through the flattened form, and through a restore into the
// optimizer and the next capture out of it.
func TestAdamStepCountExact(t *testing.T) {
	const steps = (1 << 24) + 1 // not representable as float32 by value
	sa := adapted(t, BNOpt)
	s := edited(t, sa.CaptureState(), "adam.t", math.Float32frombits(steps))
	kind, tensors, err := FlattenState(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnflattenState(s, kind, tensors)
	if err != nil {
		t.Fatal(err)
	}
	sa.RestoreState(back)
	again := sa.CaptureState()
	if got := math.Float32bits(again.vec[len(again.vec)-1]); got != steps {
		t.Fatalf("Adam step count %d, want %d", got, steps)
	}
}

func TestUnflattenRejectsMalformed(t *testing.T) {
	for _, algo := range []Algorithm{BNNorm, BNOpt} {
		s := adaptedState(t, algo)
		kind, tensors, err := FlattenState(s)
		if err != nil {
			t.Fatal(err)
		}
		other := StateKindBN
		if algo == BNNorm {
			other = StateKindBNOpt
		}
		for _, k := range []string{"nope", other} {
			if _, err := UnflattenState(s, k, tensors); err == nil {
				t.Fatalf("%v: kind %q must fail", algo, k)
			}
		}
		if _, err := UnflattenState(s, kind, tensors[:len(tensors)-1]); err == nil {
			t.Fatalf("%v: truncated tensor list must fail", algo)
		}
		extra := append(append([]serialize.Tensor(nil), tensors...), serialize.Tensor{Name: "junk"})
		if _, err := UnflattenState(s, kind, extra); err == nil {
			t.Fatalf("%v: trailing tensors must fail", algo)
		}
		re := append([]serialize.Tensor(nil), tensors...)
		re[0], re[1] = re[1], re[0]
		if _, err := UnflattenState(s, kind, re); err == nil {
			t.Fatalf("%v: reordered tensors must fail", algo)
		}
		short := append([]serialize.Tensor(nil), tensors...)
		short[2].Data = short[2].Data[1:]
		if _, err := UnflattenState(s, kind, short); err == nil {
			t.Fatalf("%v: a tensor of the wrong length must fail", algo)
		}
	}
}

// A checkpoint written before the state was one vector carries the
// per-layer bn.usebatch flags after the BatchNorm tensors. It is refused,
// and the error names the tensor.
func TestUnflattenRejectsOlderFormat(t *testing.T) {
	for _, algo := range []Algorithm{BNNorm, BNOpt} {
		s := adaptedState(t, algo)
		kind, tensors, err := FlattenState(s)
		if err != nil {
			t.Fatal(err)
		}
		nbn := 0
		for _, ts := range tensors {
			if strings.HasPrefix(ts.Name, "bn.") {
				nbn++
			}
		}
		old := append([]serialize.Tensor(nil), tensors[:nbn]...)
		old = append(old, serialize.Tensor{Name: "bn.usebatch", Data: make([]float32, nbn/4)})
		old = append(old, tensors[nbn:]...)
		_, err = UnflattenState(s, kind, old)
		if err == nil {
			t.Fatalf("%v: a checkpoint with bn.usebatch must be refused", algo)
		}
		if want := `"bn.usebatch"`; !strings.Contains(err.Error(), want) {
			t.Fatalf("%v: error %q does not name %s", algo, err, want)
		}
	}
}

func TestStateFinite(t *testing.T) {
	for _, algo := range []Algorithm{BNNorm, BNOpt} {
		s := adaptedState(t, algo)
		if !StateFinite(s) {
			t.Fatalf("%v: healthy state reported non-finite", algo)
		}
		if StateFinite(s.Poisoned()) {
			t.Fatalf("%v: poisoned state reported finite", algo)
		}
		if !StateFinite(s) {
			t.Fatalf("%v: Poisoned wrote the state it was called on", algo)
		}
	}
	if StateFinite(edited(t, adaptedState(t, BNNorm), "bn.1.rvar", float32(math.NaN()))) {
		t.Fatal("NaN in running variance not detected")
	}
	o := adaptedState(t, BNOpt)
	if StateFinite(edited(t, o, "adam.v.0", float32(math.Inf(1)))) {
		t.Fatal("Inf in Adam moment not detected")
	}
	// The step count is a bit pattern: the counts whose pattern reads as a
	// float32 NaN or Inf are as healthy as any other.
	for _, steps := range []uint32{0x7fc00000, 0x7f800000, 0xffc00001} {
		if !StateFinite(edited(t, o, "adam.t", math.Float32frombits(steps))) {
			t.Fatalf("step count %#x tripped the numeric guard", steps)
		}
	}
}

// TestCaptureRestoreIsIdentity: on all four repro models and both stateful
// algorithms, every segment of a captured state is the live memory the
// layout says it is, and restoring the state puts every segment back.
func TestCaptureRestoreIsIdentity(t *testing.T) {
	for _, build := range append(models.Registry(), models.MobileNetV2) {
		for _, algo := range []Algorithm{BNNorm, BNOpt} {
			m := build(rand.New(rand.NewSource(31)), models.ReproScale)
			a, err := New(algo, m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			sa := a.(Stateful)
			rng := rand.New(rand.NewSource(37))
			batch := func() *tensor.Tensor {
				x := tensor.New(4, 3, 32, 32)
				x.Uniform(rng, 0, 1)
				return x
			}
			a.Process(batch())
			s := sa.CaptureState()

			// live reads the model's memory under the names the layout gives it.
			live := func() map[string][]float32 {
				out := map[string][]float32{}
				for i, bn := range m.BatchNorms() {
					out[fmt.Sprintf("bn.%d.gamma", i)] = bn.Gamma.Data
					out[fmt.Sprintf("bn.%d.beta", i)] = bn.Beta.Data
					out[fmt.Sprintf("bn.%d.rmean", i)] = bn.RunningMean
					out[fmt.Sprintf("bn.%d.rvar", i)] = bn.RunningVar
				}
				return out
			}
			matches := func(when string) {
				t.Helper()
				_, tensors, err := FlattenState(s)
				if err != nil {
					t.Fatal(err)
				}
				mem, seen := live(), 0
				for _, ts := range tensors {
					if want, ok := mem[ts.Name]; ok {
						seen++
						if !bitsEqual(ts.Data, want) {
							t.Fatalf("%s %v %s: segment %s is not the model's", m.Tag, algo, when, ts.Name)
						}
					}
				}
				if seen != len(mem) {
					t.Fatalf("%s %v: state covers %d of %d BatchNorm tensors", m.Tag, algo, seen, len(mem))
				}
			}
			matches("after capture")

			a.Process(batch())
			if stateEqual(s, sa.CaptureState()) {
				t.Fatalf("%s %v: a batch left the state unchanged; the test proves nothing", m.Tag, algo)
			}
			sa.RestoreState(s)
			matches("after restore")
			if !stateEqual(s, sa.CaptureState()) {
				t.Fatalf("%s %v: RestoreState(CaptureState()) is not the identity", m.Tag, algo)
			}

			if n := testing.AllocsPerRun(20, func() { sa.CaptureState() }); n > 2 {
				t.Errorf("%s %v: CaptureState makes %v allocations, want at most 2", m.Tag, algo, n)
			}
		}
	}
}

// TestRestoreRefusesForeignState: a state from another model, or from the
// other algorithm, panics — and panics before the first write, so neither
// the adapter nor the state is touched.
func TestRestoreRefusesForeignState(t *testing.T) {
	build := func(b models.Builder, algo Algorithm) Stateful {
		a, err := New(algo, b(rand.New(rand.NewSource(41)), models.ReproScale), Config{})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(4, 3, 32, 32)
		x.Uniform(rand.New(rand.NewSource(43)), 0, 1)
		a.Process(x)
		return a.(Stateful)
	}
	for _, tc := range []struct {
		name     string
		from, to Stateful
	}{
		{"WRN state onto R18", build(models.WideResNet402, BNNorm), build(models.PreActResNet18, BNNorm)},
		{"R18 state onto WRN", build(models.PreActResNet18, BNOpt), build(models.WideResNet402, BNOpt)},
		{"BN-Norm state onto BN-Opt", build(models.WideResNet402, BNNorm), build(models.WideResNet402, BNOpt)},
		{"BN-Opt state onto BN-Norm", build(models.WideResNet402, BNOpt), build(models.WideResNet402, BNNorm)},
		{"no state", nil, build(models.WideResNet402, BNOpt)},
	} {
		var foreign *AdapterState
		if tc.from != nil {
			foreign = tc.from.CaptureState()
		}
		before := tc.to.CaptureState()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: RestoreState did not panic", tc.name)
				}
			}()
			tc.to.RestoreState(foreign)
		}()
		if !stateEqual(before, tc.to.CaptureState()) {
			t.Fatalf("%s: the refused restore still wrote the adapter", tc.name)
		}
		if tc.from != nil && !stateEqual(foreign, tc.from.CaptureState()) {
			t.Fatalf("%s: the refused restore wrote the source adapter", tc.name)
		}
	}
}
