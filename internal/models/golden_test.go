package models

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"edgetta/internal/tensor"
)

// goldenLogits are FNV-1a hashes of the eval-mode and batch-statistics
// (train-mode) logits of every repro-scale model on one fixed batch,
// recorded on amd64 at the commit before the NCHW direct kernel replaced
// the packed path. A conv kernel change must not move one bit of them; a
// change that re-pins arithmetic on purpose re-records them and says so.
var goldenLogits = map[string][2]uint64{
	"RXT-AM":    {0x9096cd8af4d14ffd, 0x60f1c4b8ed923b6c},
	"WRN-AM":    {0x52bb6552122a7d3a, 0x0e94c56e1eac8964},
	"R18-AM-AT": {0x7ac8f9cdce0641f2, 0x1eecd6c509395aa2},
	"MBV2":      {0x5b83d92798d62892, 0x0cdeb6d279889db2},
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
	if runtime.GOARCH != "amd64" {
		t.Skip("the classifier's dot product reduces in a per-build lane order (tensor.dot); the hashes are amd64's")
	}
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
