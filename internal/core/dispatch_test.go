package core

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/tensor"
)

// TestAdaptersBitEqualOnIm2ColOracle holds every adapter to the im2col
// oracle at model level: on all four models — WRN and R18 (3×3 convs and
// strided shortcuts, down to 4×4 planes), ResNeXt (grouped) and MobileNetV2
// (depthwise) — three Process calls give the same logits and the same
// captured state, bit for bit, whether the convolutions — every forward
// and, for BN-Opt, the stride-1 ungrouped input gradients — run the direct
// kernel or im2col + matmul. It is what re-running the nn and core suites
// on the other dispatch used to establish.
func TestAdaptersBitEqualOnIm2ColOracle(t *testing.T) {
	was := tensor.PackedEnabled()
	defer tensor.SetPacked(was)

	type outcome struct {
		tag    string
		logits [][]float32
		state  *AdapterState // nil for No-Adapt, which has none
	}
	run := func(build models.Builder, algo Algorithm, direct bool) outcome {
		tensor.SetPacked(direct)
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
	for _, build := range append(models.Registry(), models.MobileNetV2) {
		for _, algo := range Algorithms {
			direct, oracle := run(build, algo, true), run(build, algo, false)
			for b := range direct.logits {
				for i, v := range direct.logits[b] {
					if math.Float32bits(v) != math.Float32bits(oracle.logits[b][i]) {
						t.Fatalf("%s %v batch %d logit %d: direct %v, im2col %v", direct.tag, algo, b, i, v, oracle.logits[b][i])
					}
				}
			}
			if (direct.state == nil) != (algo == NoAdapt) {
				t.Fatalf("%s %v: captured state present = %v", direct.tag, algo, direct.state != nil)
			}
			if direct.state != nil && !stateEqual(direct.state, oracle.state) {
				t.Fatalf("%s %v: captured state differs between direct and im2col", direct.tag, algo)
			}
		}
	}
}
