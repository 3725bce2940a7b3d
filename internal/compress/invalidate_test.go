package compress

import (
	"math/rand"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/tensor"
)

// A conv layer keeps one derived copy of its weights across calls — the
// rotated input-gradient kernel, keyed on Param.Version (the forward reads
// the weights themselves): compressing a model in place must invalidate
// it, or Backward keeps differentiating through the uncompressed weights.
// These tests pin that contract end to end — the input gradient after
// compression must be bit-identical to the im2col oracle's over the same
// (compressed) weights, which rotates afresh on every call, and must differ
// from the pre-compression one. Dropping the MarkUpdated() calls in Prune
// or Quantize fails the first comparison.

func packedVsReference(t *testing.T, compressFn func(m *models.Model) error) {
	t.Helper()
	if !tensor.PackedEnabled() {
		t.Fatal("im2col oracle selected at test entry")
	}
	m := model(11)
	x := tensor.New(2, 3, 32, 32)
	x.Uniform(rand.New(rand.NewSource(2)), 0, 1)
	grad := tensor.New(2, m.Classes)
	grad.Uniform(rand.New(rand.NewSource(3)), -1, 1)
	inputGrad := func() *tensor.Tensor {
		m.Forward(x, false)
		return m.Backward(grad)
	}

	// Populate the rotated-kernel caches with the uncompressed weights.
	before := inputGrad()

	if err := compressFn(m); err != nil {
		t.Fatal(err)
	}

	direct := inputGrad()

	tensor.SetPacked(false)
	defer tensor.SetPacked(true)
	reference := inputGrad()

	changed := false
	for i := range direct.Data {
		if direct.Data[i] != reference.Data[i] {
			t.Fatalf("input gradient diverges from the im2col reference at %d: %v != %v — a stale rotated kernel survived compression",
				i, direct.Data[i], reference.Data[i])
		}
		if direct.Data[i] != before.Data[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("compression left the input gradient bit-identical: the test exercised nothing")
	}
}

func TestPruneInvalidatesPackedCache(t *testing.T) {
	packedVsReference(t, func(m *models.Model) error {
		_, err := PruneMagnitude(m, 0.5)
		return err
	})
}

func TestQuantizeInvalidatesPackedCache(t *testing.T) {
	packedVsReference(t, func(m *models.Model) error {
		_, err := QuantizeWeights(m, 4)
		return err
	})
}
