package models

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/tensor"
)

// goldenLogits are FNV-1a hashes of the eval-mode and batch-statistics
// (train-mode) logits of every repro-scale model on one fixed batch,
// recorded with one fused multiply-add per conv step (acc = fma(w, x, acc),
// rounded once). Every generic twin gives its vector routine's bits, so
// they hold on every GOARCH. A conv kernel change must not move one bit of
// them; a change that re-pins arithmetic on purpose re-records them and
// says so.
var goldenLogits = map[string][2]uint64{
	"RXT-AM":    {0xa1078befe2ffc5ce, 0x48f351fa150cb139},
	"WRN-AM":    {0xe3411aa3362f26c4, 0xb5b4df2da5671313},
	"R18-AM-AT": {0xfddd14754109c7bc, 0xdeb4d16625fc80d6},
	"MBV2":      {0x852835cc7d53da57, 0x3401079832fcd34d},
}

func logitsHash(x *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range x.Data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestGoldenLogits(t *testing.T) {
	for _, build := range append(Registry(), MobileNetV2) {
		m := build(rand.New(rand.NewSource(101)), ReproScale)
		x := tensor.New(5, m.InC, m.InHW, m.InHW)
		x.Uniform(rand.New(rand.NewSource(103)), 0, 1)
		got := [2]uint64{logitsHash(m.Forward(x, false)), logitsHash(m.Forward(x, true))}
		if want := goldenLogits[m.Tag]; got != want {
			t.Errorf("%s: logits hash {eval, train} = {%#x, %#x}, want {%#x, %#x}", m.Tag, got[0], got[1], want[0], want[1])
		}
	}
}
