package models

import (
	"fmt"
	"math/rand"

	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// Model wraps a network with the metadata the study harness needs.
//
// The activations and gradients of a pass live in the model's arena and are
// valid until the model's next Forward or Infer at the latest: Backward
// hands each activation back once the layers that read it have run, so a
// Forward supports one Backward. Nothing a caller is handed — the logits,
// the input gradient — is among them.
type Model struct {
	Name    string // human-readable architecture name
	Tag     string // the paper's short tag, e.g. "WRN-AM"
	Net     nn.Layer
	Classes int
	InC     int // input channels
	InHW    int // input spatial size

	scale Scale // what the builder was asked for; Clone builds it again

	// arena is created and attached to Net by the first pass, and attached
	// again whenever the kind of pass changes; a clone starts without one.
	arena *tensor.Arena
	infer bool // how the arena is attached: the last pass was an Infer
}

// Forward runs the network, keeping what Backward will read.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return m.pass(x, train, false)
}

// Infer is Forward(x, false) for a pass nobody will backpropagate: every
// activation goes back to the arena after its last reader, so the pass
// works in a few buffers instead of holding the whole graph. Backward
// after Infer panics.
func (m *Model) Infer(x *tensor.Tensor) *tensor.Tensor { return m.pass(x, false, true) }

func (m *Model) pass(x *tensor.Tensor, train, infer bool) *tensor.Tensor {
	if m.arena == nil || m.infer != infer {
		m.attach(infer)
	}
	m.arena.Reset()
	return m.Net.Forward(x, train)
}

// attach binds every layer and block of Net to the model's arena for passes
// of the given kind.
func (m *Model) attach(infer bool) {
	if m.arena == nil {
		m.arena = new(tensor.Arena)
	}
	m.infer = infer
	nn.Attach(m.Net, m.arena, infer)
}

// Backward backpropagates the loss gradient through the last Forward and
// returns the input gradient (nil when the layer at the input skips it, see
// nn.FreezeExceptBN) as a heap tensor. It releases the activations it
// reads as it goes: a second Backward over the same Forward reads recycled
// memory.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.infer {
		panic("models: " + m.Name + ": Backward after Infer: the pass released its activations; use Forward")
	}
	dx := m.Net.Backward(grad)
	if dx == nil {
		return nil
	}
	return dx.Clone()
}

// ActivationBytes returns what the model's arena holds: the activations
// and gradients of the last pass, plus whatever the pass before it used
// that this one did not (tensor.Arena drops that at the next pass).
func (m *Model) ActivationBytes() int { return m.arena.Bytes() }

// Clone deep-copies the model for a serving replica: its builder runs again
// without random initialisation and the original's state is copied in
// (nn.CopyState), so the copy shares no memory with the original and its
// gradients start at zero. Clone panics on a model no builder made.
func (m *Model) Clone() *Model {
	c, err := ByTag(m.Tag, nil, m.scale)
	if err != nil {
		panic(fmt.Sprintf("models: cannot clone %q: no builder has that tag", m.Tag))
	}
	nn.CopyState(c.Net, m.Net)
	return c
}

// Params returns all learnable parameters.
func (m *Model) Params() []*nn.Param { return nn.CollectParams(m.Net) }

// BatchNorms returns every BatchNorm layer in forward order.
func (m *Model) BatchNorms() []*nn.BatchNorm2d { return nn.BatchNorms(m.Net) }

// Scale selects between the paper-exact architecture and a reduced variant
// that can be trained in-process.
type Scale int

// Scales.
const (
	// Full matches the paper's models parameter-for-parameter; used for
	// cost modeling and architecture-fidelity tests.
	Full Scale = iota
	// ReproScale is a narrow/shallow variant of the same topology used for
	// the in-process accuracy experiments.
	ReproScale
)

// Builder constructs one of the study's models. A nil rng leaves every
// weight zero, for a model whose state is about to be copied in (Clone).
type Builder func(rng *rand.Rand, scale Scale) *Model

// PreActResNet18 builds the paper's "R18-AM-AT": a pre-activation
// ResNet-18 for 32×32 inputs (11.17M params, 7808 BN params, 0.56 GMACs).
func PreActResNet18(rng *rand.Rand, scale Scale) *Model {
	width, blocks := 64, [4]int{2, 2, 2, 2}
	if scale == ReproScale {
		width, blocks = 8, [4]int{1, 1, 1, 1}
	}
	seq := nn.NewSequential("preactresnet18",
		nn.NewConv2d("conv1", rng, 3, width, 3, 1, 1, 1))
	in := width
	for stage := 0; stage < 4; stage++ {
		out := width << stage
		stride := 1
		if stage > 0 {
			stride = 2
		}
		for blk := 0; blk < blocks[stage]; blk++ {
			name := fmt.Sprintf("layer%d.%d", stage+1, blk)
			s := 1
			if blk == 0 {
				s = stride
			}
			seq.Append(NewPreActBlock(name, rng, in, out, s))
			in = out
		}
	}
	seq.Append(
		nn.NewBatchNorm2d("bnFinal", in, relu),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", rng, in, 10),
	)
	return &Model{Name: "PreActResNet-18", Tag: "R18-AM-AT", Net: seq, Classes: 10, InC: 3, InHW: 32, scale: scale}
}

// WideResNet402 builds the paper's "WRN-AM": WideResNet-40-2 (2.24M
// params, 5408 BN params, 0.33 GMACs).
func WideResNet402(rng *rand.Rand, scale Scale) *Model {
	base, widen, n := 16, 2, 6 // depth 40 = 6n+4
	if scale == ReproScale {
		base, widen, n = 8, 1, 1
	}
	widths := [3]int{base * widen, 2 * base * widen, 4 * base * widen}
	seq := nn.NewSequential("wideresnet402",
		nn.NewConv2d("conv1", rng, 3, base, 3, 1, 1, 1))
	in := base
	for g := 0; g < 3; g++ {
		stride := 1
		if g > 0 {
			stride = 2
		}
		for blk := 0; blk < n; blk++ {
			name := fmt.Sprintf("group%d.%d", g+1, blk)
			s := 1
			if blk == 0 {
				s = stride
			}
			seq.Append(NewPreActBlock(name, rng, in, widths[g], s))
			in = widths[g]
		}
	}
	seq.Append(
		nn.NewBatchNorm2d("bnFinal", in, relu),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", rng, in, 10),
	)
	return &Model{Name: "WideResNet-40-2", Tag: "WRN-AM", Net: seq, Classes: 10, InC: 3, InHW: 32, scale: scale}
}

// ResNeXt29 builds the paper's "RXT-AM": ResNeXt-29 with cardinality 4 and
// base width 32 (6.81M params, 25216 BN params; the bottleneck widths are
// 128/256/512 with stage outputs 256/512/1024).
func ResNeXt29(rng *rand.Rand, scale Scale) *Model {
	card, baseWidth, blocksPerStage, stem := 4, 32, 3, 64
	if scale == ReproScale {
		card, baseWidth, blocksPerStage, stem = 2, 4, 1, 8
	}
	seq := nn.NewSequential("resnext29",
		nn.NewConv2d("conv1", rng, 3, stem, 3, 1, 1, 1),
		nn.NewBatchNorm2d("bn1", stem, relu),
	)
	in := stem
	expansion := 2 // stage output = 2 × bottleneck width
	for stage := 0; stage < 3; stage++ {
		d := card * baseWidth << stage
		out := expansion * d
		stride := 1
		if stage > 0 {
			stride = 2
		}
		for blk := 0; blk < blocksPerStage; blk++ {
			name := fmt.Sprintf("stage%d.%d", stage+1, blk)
			s := 1
			if blk == 0 {
				s = stride
			}
			seq.Append(NewResNeXtBlock(name, rng, in, d, out, card, s))
			in = out
		}
	}
	seq.Append(nn.NewGlobalAvgPool("gap"), nn.NewLinear("fc", rng, in, 10))
	return &Model{Name: "ResNeXt-29 (4x32d)", Tag: "RXT-AM", Net: seq, Classes: 10, InC: 3, InHW: 32, scale: scale}
}

// mbv2Cfg is one inverted-residual group: expansion t, output channels c,
// repeats n, first-block stride s.
type mbv2Cfg struct{ t, c, n, s int }

// MobileNetV2 builds the paper's edge-optimized comparison model (Sec IV-F:
// 2.25M params, 34112 BN params, 0.096 GMACs; CIFAR variant with stride-1
// stem).
func MobileNetV2(rng *rand.Rand, scale Scale) *Model {
	cfgs := []mbv2Cfg{
		{1, 16, 1, 1}, {6, 24, 2, 1}, {6, 32, 3, 2}, {6, 64, 4, 2},
		{6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	}
	stem, head := 32, 1280
	mult := 1.0
	if scale == ReproScale {
		mult = 0.25
		cfgs = []mbv2Cfg{{1, 16, 1, 1}, {6, 24, 2, 1}, {6, 32, 2, 2}, {6, 64, 2, 2}, {6, 96, 1, 1}}
		head = 160
	}
	ch := func(c int) int {
		v := int(float64(c)*mult + 0.5)
		if v < 4 {
			v = 4
		}
		return v
	}
	seq := nn.NewSequential("mobilenetv2",
		nn.NewConv2d("conv1", rng, 3, ch(stem), 3, 1, 1, 1),
		nn.NewBatchNorm2d("bn1", ch(stem), relu6),
	)
	in := ch(stem)
	for gi, cfg := range cfgs {
		out := ch(cfg.c)
		for blk := 0; blk < cfg.n; blk++ {
			name := fmt.Sprintf("block%d.%d", gi+1, blk)
			s := 1
			if blk == 0 {
				s = cfg.s
			}
			seq.Append(NewInvertedResidual(name, rng, in, out, s, cfg.t))
			in = out
		}
	}
	seq.Append(
		nn.NewConv2d("conv2", rng, in, head, 1, 1, 0, 1),
		nn.NewBatchNorm2d("bn2", head, relu6),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", rng, head, 10),
	)
	return &Model{Name: "MobileNetV2", Tag: "MBV2", Net: seq, Classes: 10, InC: 3, InHW: 32, scale: scale}
}

// Registry lists the study's three robust models in the paper's order.
// MobileNetV2 is kept separate, as in the paper (Sec IV-F).
func Registry() []Builder {
	return []Builder{ResNeXt29, WideResNet402, PreActResNet18}
}

// ByTag builds the model with the given paper tag at the given scale.
func ByTag(tag string, rng *rand.Rand, scale Scale) (*Model, error) {
	switch tag {
	case "RXT-AM":
		return ResNeXt29(rng, scale), nil
	case "WRN-AM":
		return WideResNet402(rng, scale), nil
	case "R18-AM-AT":
		return PreActResNet18(rng, scale), nil
	case "MBV2":
		return MobileNetV2(rng, scale), nil
	}
	return nil, fmt.Errorf("models: unknown tag %q", tag)
}
