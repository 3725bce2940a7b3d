package core

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/tensor"
)

// TestAdaptersBitEqualOnIm2ColOracle holds every adapter to the im2col
// oracle at model level: on WRN (all convs packed-eligible) and ResNeXt
// (grouped and strided shapes beside them), three Process calls give the
// same logits and the same captured state, bit for bit, whether the
// stride-1 ungrouped convolutions — forward and, for BN-Opt, the input
// gradient — run the packed direct kernel or im2col + matmul. It is what
// re-running the nn and core suites on the other dispatch used to establish.
func TestAdaptersBitEqualOnIm2ColOracle(t *testing.T) {
	was := tensor.PackedEnabled()
	defer tensor.SetPacked(was)

	type outcome struct {
		tag    string
		logits [][]float32
		state  AdapterState // nil for No-Adapt, which has none
	}
	run := func(build models.Builder, algo Algorithm, packed bool) outcome {
		tensor.SetPacked(packed)
		m := build(rand.New(rand.NewSource(23)), models.ReproScale)
		a, err := New(algo, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		o := outcome{tag: m.Tag}
		rng := rand.New(rand.NewSource(29))
		for batch := 0; batch < 3; batch++ {
			x := tensor.New(6, 3, 32, 32)
			x.Uniform(rng, 0, 1)
			o.logits = append(o.logits, a.Process(x).Data)
		}
		if sa, ok := a.(Stateful); ok {
			o.state = sa.CaptureState()
		}
		return o
	}
	for _, build := range []models.Builder{models.WideResNet402, models.ResNeXt29} {
		for _, algo := range Algorithms {
			direct, oracle := run(build, algo, true), run(build, algo, false)
			for b := range direct.logits {
				for i, v := range direct.logits[b] {
					if math.Float32bits(v) != math.Float32bits(oracle.logits[b][i]) {
						t.Fatalf("%s %v batch %d logit %d: packed %v, im2col %v", direct.tag, algo, b, i, v, oracle.logits[b][i])
					}
				}
			}
			if (direct.state == nil) != (algo == NoAdapt) {
				t.Fatalf("%s %v: captured state present = %v", direct.tag, algo, direct.state != nil)
			}
			if direct.state != nil && !stateEqual(direct.state, oracle.state) {
				t.Fatalf("%s %v: captured state differs between packed and im2col", direct.tag, algo)
			}
		}
	}
}
