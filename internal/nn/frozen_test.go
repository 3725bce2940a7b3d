package nn

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/parallel"
	"edgetta/internal/tensor"
)

func allZero(v []float32) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestFrozenBackwardMatchesUnfrozen: freezing a layer's parameters must
// change nothing a BN-Opt step reads — the returned input gradient and the
// γ/β gradients of the BatchNorm upstream are bit-identical to the
// unfrozen backward — while the frozen Grad is never written.
func TestFrozenBackwardMatchesUnfrozen(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape []int // input
		build func(rng *rand.Rand) []Layer
	}{
		{"conv3x3", []int{5, 16, 9, 9}, func(r *rand.Rand) []Layer { return []Layer{NewConv2d("c", r, 16, 24, 3, 1, 1, 1)} }},
		{"conv3x3-stride2", []int{5, 8, 9, 9}, func(r *rand.Rand) []Layer { return []Layer{NewConv2d("c", r, 8, 12, 3, 2, 1, 1)} }},
		{"conv3x3-grouped", []int{5, 8, 9, 9}, func(r *rand.Rand) []Layer { return []Layer{NewConv2d("c", r, 8, 12, 3, 1, 1, 4)} }},
		{"conv1x1", []int{5, 16, 7, 7}, func(r *rand.Rand) []Layer { return []Layer{NewConv2d("c", r, 16, 32, 1, 1, 0, 1)} }},
		{"conv1x1-stride2", []int{5, 16, 8, 8}, func(r *rand.Rand) []Layer { return []Layer{NewConv2d("c", r, 16, 32, 1, 2, 0, 1)} }},
		{"conv-rgb", []int{5, 3, 9, 9}, func(r *rand.Rand) []Layer { return []Layer{NewConv2d("c", r, 3, 16, 3, 1, 1, 1)} }},
		{"linear", []int{5, 12, 4, 4}, func(r *rand.Rand) []Layer {
			return []Layer{NewGlobalAvgPool("gap"), NewLinear("fc", r, 12, 10)}
		}},
	} {
		type result struct {
			dx, gamma, beta []float32
			own             [][]float32
		}
		run := func(frozen bool) result {
			rng := rand.New(rand.NewSource(41))
			bn := NewBatchNorm2d("bn", tc.shape[1])
			layers := tc.build(rng)
			net := NewSequential("net", append([]Layer{bn}, layers...)...)
			var own []*Param
			for _, l := range layers {
				own = append(own, l.Params()...)
			}
			for _, p := range own {
				p.Frozen = frozen
			}
			x := tensor.New(tc.shape...)
			x.Randn(rng, 1)
			y := net.Forward(x, true)
			grad := tensor.New(y.Shape()...)
			grad.Randn(rng, 1)
			dx := net.Backward(grad)
			r := result{dx: dx.Data, gamma: bn.Gamma.Grad, beta: bn.Beta.Grad}
			for _, p := range own {
				r.own = append(r.own, p.Grad)
			}
			return r
		}
		live, frozen := run(false), run(true)
		if !float32BitsEqual(live.dx, frozen.dx) {
			t.Errorf("%s: input gradient differs when frozen", tc.name)
		}
		if !float32BitsEqual(live.gamma, frozen.gamma) || !float32BitsEqual(live.beta, frozen.beta) {
			t.Errorf("%s: upstream BN γ/β gradients differ when frozen", tc.name)
		}
		for i := range live.own {
			if allZero(live.own[i]) {
				t.Errorf("%s: unfrozen parameter %d received no gradient", tc.name, i)
			}
			if !allZero(frozen.own[i]) {
				t.Errorf("%s: frozen parameter %d had its Grad written", tc.name, i)
			}
		}
	}
}

// TestFrozenBatchNormGradUntouched: the invariant holds for BatchNorm too,
// whose dX needs the γ/β sums either way.
func TestFrozenBatchNormGradUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	bn := NewBatchNorm2d("bn", 6)
	x := tensor.New(4, 6, 5, 5)
	x.Randn(rng, 1)
	grad := tensor.New(4, 6, 5, 5)
	grad.Randn(rng, 1)
	bn.Forward(x, true)
	live := bn.Backward(grad)
	bn.Gamma.ZeroGrad()
	bn.Beta.ZeroGrad()
	bn.Gamma.Frozen, bn.Beta.Frozen = true, true
	bn.Forward(x, true)
	frozen := bn.Backward(grad)
	if !float32BitsEqual(live.Data, frozen.Data) {
		t.Error("BN input gradient differs when γ/β are frozen")
	}
	if !allZero(bn.Gamma.Grad) || !allZero(bn.Beta.Grad) {
		t.Error("frozen γ/β had their Grad written")
	}
}

// TestFreezeExceptBNAndUnfreeze pins the two helpers: what gets frozen,
// which layer stops producing an input gradient, and that Unfreeze undoes
// both.
func TestFreezeExceptBNAndUnfreeze(t *testing.T) {
	net := buildParityNet(7)
	x := parityInput(11)
	backward := func() *tensor.Tensor {
		y := net.Forward(x, true)
		g := tensor.New(y.Shape()...)
		g.Fill(0.01)
		return net.Backward(g)
	}
	FreezeExceptBN(net)
	Walk(net, func(l Layer) {
		_, isBN := l.(*BatchNorm2d)
		for _, p := range l.Params() {
			if p.Frozen == isBN {
				t.Errorf("%s: Frozen=%v", p.Name, p.Frozen)
			}
		}
	})
	if dx := backward(); dx != nil {
		t.Error("armed net still returned an input gradient")
	}
	for _, p := range CollectParams(net) {
		if p.Frozen && !allZero(p.Grad) {
			t.Errorf("%s: frozen Grad written", p.Name)
		}
	}
	clone := Clone(net).(*Sequential)
	if !clone.layers[0].(*Conv2d).noInputGrad || !CollectParams(clone)[0].Frozen {
		t.Error("clone dropped the frozen / no-input-gradient flags")
	}

	Unfreeze(net)
	if dx := backward(); dx == nil || allZero(dx.Data) {
		t.Error("Unfreeze did not restore the input gradient")
	}
	for _, p := range CollectParams(net) {
		if p.Frozen || allZero(p.Grad) {
			t.Errorf("%s: Frozen=%v or no gradient after Unfreeze", p.Name, p.Frozen)
		}
	}

	// A block at the input may feed a shortcut too, so only a plain leaf
	// at the head of nested Sequentials is ever marked.
	rng := rand.New(rand.NewSource(3))
	inner := NewConv2d("inner", rng, 3, 4, 3, 1, 1, 1)
	FreezeExceptBN(NewSequential("outer", NewSequential("stem", inner), NewReLU("r")))
	if !inner.noInputGrad {
		t.Error("head of a nested Sequential not marked")
	}
	lin := NewLinear("fc", rng, 4, 2)
	FreezeExceptBN(NewSequential("s", NewFlatten("f"), lin))
	if lin.noInputGrad {
		t.Error("a layer behind the input layer was marked")
	}
}

// convGradCase builds a stride-1 ungrouped conv with a forward pass done,
// plus a unit-scale output gradient.
func convGradCase(seed int64, in, out, k, pad int) (*Conv2d, *tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	conv := NewConv2d("c", rng, in, out, k, 1, pad, 1)
	x := tensor.New(3, in, 9, 11)
	x.Randn(rng, 1)
	y := conv.Forward(x, true)
	grad := tensor.New(y.Shape()...)
	grad.Randn(rng, 1)
	return conv, x, grad
}

var rotatedShapes = []struct{ in, out, k, pad int }{
	{3, 16, 3, 1},  // first layer: a three-channel tile on the dX output side
	{16, 16, 3, 1}, // whole tiles
	{16, 32, 1, 0}, // 1x1 shortcut: dX read in place
	{10, 12, 3, 0}, // no pad: dX convolves at pad 2
	{6, 9, 5, 2},   // 5x5
	{8, 8, 3, 2},   // pad K-1: dX convolves at pad 0, in place
}

// goldenRotatedDX is the FNV-1a hash of the input gradients over
// rotatedShapes, recorded when they ran as the forward convolution of dY
// with the rotated kernel at pad K-1-Pad: the residue plan's one residue
// must reproduce them bit for bit.
const goldenRotatedDX = 0x9cbd143692ae853c

// col2imInputGrad is the lowering-based input gradient of an ungrouped
// conv: per image, the columns Wᵀ·dY scatter-added back over the windows
// they came from.
func col2imInputGrad(c *Conv2d, xShape []int, dy *tensor.Tensor) *tensor.Tensor {
	n, h, w := xShape[0], xShape[2], xShape[3]
	oh, ow := dy.Shape()[2], dy.Shape()[3]
	rows, cols := c.InC*c.K*c.K, oh*ow
	dx := tensor.New(xShape...)
	dcol := make([]float32, rows*cols)
	for img := 0; img < n; img++ {
		tensor.MatMulTransAInto(dcol, c.Weight.Data, dy.Data[img*c.OutC*cols:][:c.OutC*cols], c.OutC, rows, cols, false)
		for r := 0; r < rows; r++ {
			ic, ky, kx := r/(c.K*c.K), r/c.K%c.K, r%c.K
			for p := 0; p < cols; p++ {
				iy, ix := p/ow*c.Stride-c.Pad+ky, p%ow*c.Stride-c.Pad+kx
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					dx.Data[((img*c.InC+ic)*h+iy)*w+ix] += dcol[r*cols+p]
				}
			}
		}
	}
	return dx
}

// TestConvInputGradMatchesCol2ImOracle holds the residue plan's dX to the
// lowering-based dX: the two sum the same products in a different order, so
// they agree to rounding, and exactly for 1×1 where the orders coincide.
func TestConvInputGradMatchesCol2ImOracle(t *testing.T) {
	for _, tc := range rotatedShapes {
		conv, x, grad := convGradCase(47, tc.in, tc.out, tc.k, tc.pad)
		dx := conv.Backward(grad)
		oracle := col2imInputGrad(conv, x.Shape(), grad)
		if tc.k == 1 {
			if !float32BitsEqual(dx.Data, oracle.Data) {
				t.Errorf("%+v: 1x1 input gradient not identical to the col2im oracle", tc)
			}
			continue
		}
		worst := 0.0
		for i := range dx.Data {
			worst = math.Max(worst, math.Abs(float64(dx.Data[i]-oracle.Data[i])))
		}
		if worst > 1e-5 {
			t.Errorf("%+v: input gradient off the col2im oracle by %g", tc, worst)
		}
	}
	// Pad ≥ K: the padding ring receives nothing, the rest is the 1×1 sum.
	rng := rand.New(rand.NewSource(5))
	wide := NewConv2d("c", rng, 2, 3, 1, 1, 1, 1)
	x := tensor.New(2, 2, 4, 4)
	x.Randn(rng, 1)
	y := wide.Forward(x, true)
	dx := wide.Backward(y)
	if !float32BitsEqual(dx.Data, col2imInputGrad(wide, x.Shape(), y).Data) {
		t.Error("pad ≥ K input gradient not identical to the col2im oracle")
	}
}

// TestConvInputGradDispatchParity: the input gradient of the stride-1
// ungrouped shapes is bit for bit goldenRotatedDX, for every worker count
// and whichever forward path a test selects (the im2col oracle is the
// forward's; dX has one path).
func TestConvInputGradDispatchParity(t *testing.T) {
	wasPacked := tensor.PackedEnabled()
	defer tensor.SetPacked(wasPacked)
	defer parallel.SetWorkers(0)

	dx := func(tc struct{ in, out, k, pad int }, direct bool, workers int) []float32 {
		tensor.SetPacked(direct)
		parallel.SetWorkers(workers)
		conv, _, grad := convGradCase(53, tc.in, tc.out, tc.k, tc.pad)
		return conv.Backward(grad).Data
	}
	h := fnv.New64a()
	for _, tc := range rotatedShapes {
		ref := dx(tc, true, 1)
		hashFloats(h, ref)
		if !float32BitsEqual(ref, dx(tc, false, 1)) {
			t.Errorf("%+v: input gradient moves with the forward's dispatch", tc)
		}
		if !float32BitsEqual(ref, dx(tc, true, 8)) || !float32BitsEqual(ref, dx(tc, false, 8)) {
			t.Errorf("%+v: input gradient differs between 1 and 8 workers", tc)
		}
	}
	if got := h.Sum64(); got != goldenRotatedDX {
		t.Errorf("stride-1 input gradients hash to %#x, want %#x", got, uint64(goldenRotatedDX))
	}
}

// TestConvSeesUnannouncedWeightWrite: the layer keeps nothing derived from
// Weight, so writing Weight.Data directly after a Backward — no notification
// of any kind — is seen by the next Forward, bit for bit what the im2col
// oracle computes from the same weights, and by the next Backward, for the
// layer and for a clone updated independently of it.
func TestConvSeesUnannouncedWeightWrite(t *testing.T) {
	wasPacked := tensor.PackedEnabled()
	defer tensor.SetPacked(wasPacked)
	tensor.SetPacked(true)

	conv, x, grad := convGradCase(59, 16, 24, 3, 1)
	before := conv.Backward(grad)
	clone := conv.CloneLayer().(*Conv2d)
	clone.Forward(x, true)
	if !float32BitsEqual(before.Data, clone.Backward(grad).Data) {
		t.Fatal("clone's input gradient differs from the original's before either was written")
	}

	scale := func(c *Conv2d, by float32) {
		for i := range c.Weight.Data {
			c.Weight.Data[i] *= by
		}
	}
	run := func(c *Conv2d, direct bool) (y, dx *tensor.Tensor) {
		tensor.SetPacked(direct)
		y = c.Forward(x, true)
		return y, c.Backward(grad)
	}
	scale(clone, 1.5)
	cloneY, cloneDX := run(clone, true)
	if y, dx := run(conv, true); !float32BitsEqual(dx.Data, before.Data) || float32BitsEqual(y.Data, cloneY.Data) {
		t.Error("writing the clone's weights moved the original")
	}
	scale(conv, -0.5)
	for _, tc := range []struct {
		name    string
		c       *Conv2d
		y0, dx0 *tensor.Tensor // direct results computed before the other side was written
	}{{"layer", conv, nil, nil}, {"clone", clone, cloneY, cloneDX}} {
		y, dx := run(tc.c, true)
		oy, odx := run(tc.c, false)
		if !float32BitsEqual(y.Data, oy.Data) {
			t.Errorf("%s: Forward after a direct weight write differs from the im2col oracle", tc.name)
		}
		if !float32BitsEqual(dx.Data, odx.Data) {
			t.Errorf("%s: Backward after a direct weight write differs from the im2col oracle (stale kernel)", tc.name)
		}
		if float32BitsEqual(dx.Data, before.Data) {
			t.Errorf("%s: input gradient did not move with the weights", tc.name)
		}
		if tc.y0 != nil && !(float32BitsEqual(y.Data, tc.y0.Data) && float32BitsEqual(dx.Data, tc.dx0.Data)) {
			t.Errorf("%s: writing the original's weights moved it", tc.name)
		}
	}
}

// TestFrozenConvBackwardAllocs: inside a model a frozen conv's Backward —
// dx, the gathered taps, the staged dY and the residue outputs drawn from
// the arena, both plans kept from the last call — allocates only what the
// scheduler's loop costs, its closure and the copy-time counter it
// captures (2 as measured at one worker, for every shape here).
func TestFrozenConvBackwardAllocs(t *testing.T) {
	if profActive() {
		t.Skip("a tracer is active: every span allocates")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	const maxAllocs = 3
	for _, tc := range []struct{ k, stride, pad, groups int }{{3, 1, 1, 1}, {1, 1, 0, 1}, {3, 2, 1, 1}, {1, 2, 0, 1}, {3, 1, 1, 4}} {
		rng := rand.New(rand.NewSource(59))
		conv := NewConv2d("c", rng, 16, 24, tc.k, tc.stride, tc.pad, tc.groups)
		conv.Weight.Frozen = true
		a := new(tensor.Arena)
		Attach(conv, a, false)
		x := tensor.New(3, 16, 9, 11)
		x.Randn(rng, 1)
		grad := tensor.New(conv.Forward(x, true).Shape()...)
		grad.Randn(rng, 1)
		conv.Backward(grad) // the arena has seen every shape
		got := testing.AllocsPerRun(200, func() {
			a.Reset()
			conv.Backward(grad)
		})
		if got > maxAllocs {
			t.Errorf("%+v: frozen Backward allocates %v times per call, want ≤ %v", tc, got, maxAllocs)
		}
	}
}

// TestBackwardRecordsNoForwardTime: the dX convolution reuses the forward
// kernel but not Forward, so a Backward leaves every forward total — the
// staging one included — and the layer's forward caches alone, and records
// one conv.bw interval per conv layer.
func TestBackwardRecordsNoForwardTime(t *testing.T) {
	wasPacked := tensor.PackedEnabled()
	defer tensor.SetPacked(wasPacked)
	tensor.SetPacked(true)

	net := buildParityNet(7)
	FreezeExceptBN(net)
	y := net.Forward(parityInput(11), false)
	conv2 := net.layers[3].(*Conv2d)
	spec, input := conv2.Spec(), conv2.input
	if !StartProfiling() {
		t.Skip("another profiler is active")
	}
	net.Backward(y)
	got := StopProfiling()
	for k, n := range got.FwCalls {
		t.Errorf("Backward recorded %d forward interval(s) of kind %v (%.3g s)", n, k, got.FwSeconds[k])
	}
	if got.BwCalls[KindConv] != 2 {
		t.Errorf("conv.bw intervals = %d, want one per conv layer", got.BwCalls[KindConv])
	}
	// conv1 sits at the input and skips dX; conv2's dX convolves at pad 1,
	// so it is staged, and that copy is backward time.
	if got.BwCalls[KindPack] != 1 || got.BwSeconds[KindPack] <= 0 {
		t.Errorf("backward pack intervals = %d (%.3g s), want 1", got.BwCalls[KindPack], got.BwSeconds[KindPack])
	}
	if conv2.Spec() != spec || conv2.input != input {
		t.Error("Backward overwrote the layer's forward caches")
	}
}
