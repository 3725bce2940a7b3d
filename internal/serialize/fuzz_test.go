package serialize

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// tinyModel is a conv and a BatchNorm: its whole checkpoint is a few
// hundred bytes, so the fuzzer mutates complete containers rather than the
// first bytes of a large one.
func tinyModel(seed int64) *models.Model {
	rng := rand.New(rand.NewSource(seed))
	return &models.Model{Tag: "tiny", Net: nn.NewSequential("net",
		nn.NewConv2d("conv", rng, 1, 2, 1, 1, 0, 1), nn.NewBatchNorm2d("bn", 2, tensor.Rect{}))}
}

// bits renders each tensor as its name followed by its raw float bits.
func bits(tensors []Tensor) []string {
	var out []string
	for _, t := range tensors {
		b := make([]byte, 0, len(t.Name)+4*len(t.Data))
		b = append(b, t.Name...)
		for _, v := range t.Data {
			u := math.Float32bits(v)
			b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
		}
		out = append(out, string(b))
	}
	return out
}

// FuzzLoad feeds the model-checkpoint decoder hostile bytes. Load must
// never panic; a refused checkpoint leaves every tensor of the model
// bitwise as it was, as Load promises; and an accepted one survives Save
// then Load into a fresh model bit for bit. The seed corpus is in
// testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		m := tinyModel(2)
		before := bits(tensorsOf(m))
		if err := Load(bytes.NewReader(in), m); err != nil {
			if !slices.Equal(before, bits(tensorsOf(m))) {
				t.Fatalf("refused checkpoint (%v) changed the model", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := Save(&buf, m); err != nil {
			t.Fatal(err)
		}
		back := tinyModel(3)
		if err := Load(&buf, back); err != nil {
			t.Fatalf("re-saved checkpoint refused: %v", err)
		}
		if !slices.Equal(bits(tensorsOf(m)), bits(tensorsOf(back))) {
			t.Fatal("Save then Load changed the tensors")
		}
	})
}

// FuzzLoadState feeds the adaptation-state decoder hostile bytes. LoadState
// must never panic; a refused container yields no tensors; and an accepted
// one survives SaveState then LoadState bit for bit, header included. The
// seed corpus is in testdata/fuzz/FuzzLoadState.
func FuzzLoadState(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		h, tensors, err := LoadState(bytes.NewReader(in))
		if err != nil {
			if tensors != nil {
				t.Fatalf("refused container (%v) returned %d tensors", err, len(tensors))
			}
			return
		}
		var buf bytes.Buffer
		if err := SaveState(&buf, h, tensors); err != nil {
			t.Fatal(err)
		}
		h2, back, err := LoadState(&buf)
		if err != nil {
			t.Fatalf("re-saved container refused: %v", err)
		}
		if h2 != h || !slices.Equal(bits(tensors), bits(back)) {
			t.Fatalf("SaveState then LoadState changed the container: header %+v, want %+v", h2, h)
		}
	})
}
