package tensor

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/parallel"
)

// guard is how many canary values bracket each buffer the kernel is handed.
const guard = 24

// guarded returns a slice of n floats cut from the middle of a longer
// buffer whose margins hold NaN: a load that strays into a margin poisons
// the result it feeds, and intact reports a store that did.
func guarded(n int) (mid []float32, intact func() bool) {
	buf := make([]float32, n+2*guard)
	nan := float32(math.NaN())
	for i := range buf {
		buf[i] = nan
	}
	mid = buf[guard : guard+n : guard+n]
	return mid, func() bool {
		for i := 0; i < guard; i++ {
			if buf[i] == buf[i] || buf[guard+n+i] == buf[guard+n+i] {
				return false
			}
		}
		return true
	}
}

// convIm2ColRef computes one image's conv via the im2col + matmul path, a
// group at a time — the reference the direct kernel must reproduce bit for
// bit.
func convIm2ColRef(y, x, w []float32, s ConvShape) {
	inCg, outCg := s.InC/s.Groups, s.OutC/s.Groups
	rows, cols := inCg*s.K*s.K, s.OutH()*s.OutW()
	buf := make([]float32, rows*cols)
	for g := 0; g < s.Groups; g++ {
		Im2Col(buf, x[g*inCg*s.H*s.W:], inCg, s.H, s.W, s.K, s.Stride, s.Pad)
		MatMulInto(y[g*outCg*cols:], w[g*outCg*rows:], buf, outCg, rows, cols, false)
	}
}

// convDirectRun computes the same conv through the direct kernel, with the
// input, the staging buffer and the destination each bracketed by canaries.
func convDirectRun(t *testing.T, x, w []float32, s ConvShape) []float32 {
	t.Helper()
	p := NewConvPlan(s)
	in, inOK := guarded(len(x))
	copy(in, x)
	stagedOK := func() bool { return true }
	if n := p.StagedLen(); n > 0 {
		var staged []float32
		staged, stagedOK = guarded(n)
		p.Stage(staged, in)
		in = staged
	}
	y, yOK := guarded(s.OutC * s.OutH() * s.OutW())
	p.Run(y, in, w)
	if !inOK() || !stagedOK() || !yOK() {
		t.Errorf("%+v: the kernel wrote outside a buffer it was handed", s)
	}
	return y
}

func randSlice(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// parityPlanes covers square and non-square planes, widths below one
// vector, every residue of H·W modulo 8 (the whole-plane spans of K ≤
// stride), and rows longer than one block of either tile.
var parityPlanes = [][2]int{
	{3, 3}, {2, 5}, {1, 11}, {3, 4}, {3, 7}, {2, 7}, {3, 5}, {6, 6},
	{8, 8}, {9, 7}, {12, 10}, {5, 17}, {4, 33}, {2, 41},
}

// TestConvPackedMatchesIm2ColBitwise pins the dispatch contract: the direct
// kernel must reproduce the im2col+matmul path bit for bit — in place and
// staged, strided, grouped and depthwise, with output-channel tiles of
// every height, pixel tails of every width and exact zero weights — and
// for every worker count.
func TestConvPackedMatchesIm2ColBitwise(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(43))
	cases := 0
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, groups := range []int{1, 2, 3} {
					for _, outCg := range []int{1, 2, 3, 4, 5, 8} {
						for _, hw := range parityPlanes {
							if hw[0]+2*pad < k || hw[1]+2*pad < k {
								continue
							}
							// groups == 3 is the depthwise case: one input
							// channel per group.
							inCg := 4 - groups
							s := ConvShape{InC: groups * inCg, OutC: groups * outCg, H: hw[0], W: hw[1],
								K: k, Stride: stride, Pad: pad, Groups: groups}
							x := randSlice(rng, s.InC*s.H*s.W)
							w := randSlice(rng, s.OutC*inCg*k*k)
							// Exact zeros exercise the matmul's zero-weight
							// skip, which the direct kernel does not have;
							// adding the skipped ±0 products is a bitwise
							// no-op (see conv_direct.go).
							for i := 0; i < len(w); i += 7 {
								w[i] = 0
							}
							want := make([]float32, s.OutC*s.OutH()*s.OutW())
							convIm2ColRef(want, x, w, s)
							for _, workers := range []int{1, 8} {
								parallel.SetWorkers(workers)
								if !bitsEqual(convDirectRun(t, x, w, s), want) {
									t.Errorf("%+v, %d workers: direct conv differs from im2col", s, workers)
								}
							}
							cases++
						}
					}
				}
			}
		}
	}
	if cases < 3000 {
		t.Errorf("only %d geometries ran", cases)
	}
}

// spanRoutine is one span routine called the way convSpan calls it, on
// channels [0, noc) rounded down to a multiple of tile. needs names the
// CPU feature it runs on, and has says whether this CPU has it.
type spanRoutine struct {
	name, needs string
	has         bool
	tile        int
	run         func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int)
}

// allSpanRoutines is the dispatching wrapper and every vector routine of
// this architecture (spanRoutines).
func allSpanRoutines() []spanRoutine {
	wrapper := spanRoutine{name: "convSpan", has: true, tile: 1,
		run: func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
			convSpan(y, yStride, x, w, wStride, newOffsets(off), noc, npix, nspan, xStep)
		}}
	return append([]spanRoutine{wrapper}, spanRoutines()...)
}

// spanCase is one span-kernel call with its operands: x and w random, y a
// guarded NaN-filled buffer whose channels lie yStride apart with a
// canary gap between them.
type spanCase struct {
	noc, npix, nspan, xStep, yStride, wStride int
	off                                       []int32
	x, w                                      []float32
}

// yLen and xLen are the extents convSpan admits for the case.
func (c spanCase) yLen() int { return (c.noc-1)*c.yStride + c.nspan*c.npix }
func (c spanCase) xLen() int { return newOffsets(c.off).max + (c.nspan-1)*c.xStep + c.npix }

// want is the generic kernel's output for the case.
func (c spanCase) want() []float32 {
	want := make([]float32, c.yLen())
	convSpanGeneric(want, c.yStride, c.x, c.w, c.wStride, c.off, c.noc, c.npix, c.nspan, c.xStep)
	return want
}

// check compares y, written by a routine that covers the first covered
// channels, with the generic kernel's output want bit for bit, and
// requires every other element to be still NaN: the gaps between channels
// and the channels the routine does not take.
func (c spanCase) check(t *testing.T, what string, y, want []float32, covered int) {
	t.Helper()
	n := c.nspan * c.npix
	for i, v := range y {
		j, p := i/c.yStride, i%c.yStride
		switch {
		case j < covered && p < n:
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Errorf("%s %+v: channel %d pixel %d = %v, the generic kernel %v", what, c.dims(), j, p, v, want[i])
				return
			}
		case v == v:
			t.Errorf("%s %+v: store at channel %d element %d, outside the spans it computes", what, c.dims(), j, p)
			return
		}
	}
}

// dims is the case without its operands, for messages.
func (c spanCase) dims() [5]int { return [5]int{c.noc, c.npix, c.nspan, c.xStep, len(c.off)} }

// TestConvPackedGenericMatchesSIMD holds every span routine this CPU has
// — called directly, not only through the dispatch — to the portable
// kernel bit for bit: mul+add at 8 or 16 lanes must round as the scalar
// loop does. It covers every tile height, tail width and run of packed
// spans, spans read further apart than they are long, and destinations
// bracketed by canaries.
func TestConvPackedGenericMatchesSIMD(t *testing.T) {
	const rows, reach = 37, 90
	for _, r := range allSpanRoutines() {
		t.Run(r.name, func(t *testing.T) {
			if !r.has {
				t.Skipf("the CPU lacks %s", r.needs)
			}
			rng := rand.New(rand.NewSource(47))
			for noc := 1; noc <= 9; noc++ {
				for _, npix := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 24, 31, 32, 33, 47, 71} {
					for nspan := 1; nspan <= 5; nspan++ {
						for _, xStep := range []int{npix, npix + 2, npix + 5} {
							c := spanCase{noc: noc, npix: npix, nspan: nspan, xStep: xStep,
								yStride: nspan*npix + 5, wStride: rows + 3, off: make([]int32, rows)}
							for i := range c.off {
								c.off[i] = int32(rng.Intn(reach))
							}
							x, xOK := guarded(c.xLen())
							copy(x, randSlice(rng, len(x)))
							c.x, c.w = x, randSlice(rng, noc*c.wStride)
							y, yOK := guarded(c.yLen())
							r.run(y, c.yStride, c.x, c.w, c.wStride, c.off, noc, npix, nspan, xStep)
							c.check(t, r.name, y, c.want(), noc/r.tile*r.tile)
							if !xOK() || !yOK() {
								t.Errorf("%s %+v: store outside the operands", r.name, c.dims())
							}
						}
					}
				}
			}
		})
	}
}

// TestConvPackedDeterministicAcrossWorkerCounts: the direct forward must
// be bit-identical whether the pool runs one worker or eight, at a shape
// large enough that the spans of one image are spread over the pool.
func TestConvPackedDeterministicAcrossWorkerCounts(t *testing.T) {
	defer parallel.SetWorkers(0)
	rng := rand.New(rand.NewSource(53))
	s := ConvShape{InC: 16, OutC: 32, H: 12, W: 12, K: 3, Stride: 1, Pad: 1, Groups: 1}
	x, w := randSlice(rng, s.InC*s.H*s.W), randSlice(rng, s.OutC*s.InC*9)
	run := func(workers int) []float32 {
		parallel.SetWorkers(workers)
		return convDirectRun(t, x, w, s)
	}
	if !bitsEqual(run(1), run(8)) {
		t.Error("direct conv differs between 1 and 8 workers")
	}
}

// convGradRun computes one image's input gradient dy → dX through the
// gradient plan, with every buffer it is handed bracketed by canaries and
// arriving full of NaN: an element left unwritten surfaces as NaN.
func convGradRun(t *testing.T, dy, w []float32, s ConvShape) []float32 {
	t.Helper()
	p := NewConvGradPlan(s)
	in, inOK := guarded(len(dy))
	copy(in, dy)
	taps, tapsOK := guarded(len(w))
	p.Weights(taps, w)
	dx, dxOK := guarded(s.InC * s.H * s.W)
	intact := []func() bool{inOK, tapsOK, dxOK}
	if n := p.StagedLen(); n > 0 {
		staged, ok := guarded(n)
		p.Stage(staged, in)
		in, intact = staged, append(intact, ok)
	}
	if n := p.SplitLen(); n > 0 {
		split, ok := guarded(n)
		p.Run(split, in, taps)
		p.Unstage(dx, split)
		intact = append(intact, ok)
	} else {
		p.Run(dx, in, taps)
	}
	for _, ok := range intact {
		if !ok() {
			t.Errorf("%+v: the gradient plan wrote outside a buffer it was handed", s)
		}
	}
	return dx
}

// TestConvGradIsAdjointOfConv: the input gradient is the adjoint of the
// convolution, ⟨conv(x), g⟩ = ⟨x, dX(g)⟩ to rounding, over strides 1–3 —
// dY read in place and staged, one residue and many, residues no tap
// reaches (K < stride), pad beyond K, grouped and depthwise — on every
// parity plane, through buffers bracketed by canaries.
func TestConvGradIsAdjointOfConv(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := 0
	for _, k := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, k - 1, k + 1} {
				for _, groups := range []int{1, 3} {
					for _, hw := range parityPlanes {
						s := ConvShape{InC: 3, OutC: 2 * groups, H: hw[0], W: hw[1], K: k, Stride: stride, Pad: pad, Groups: groups}
						if !s.valid() {
							continue
						}
						x, g := randSlice(rng, s.InC*s.H*s.W), randSlice(rng, s.OutC*s.OutH()*s.OutW())
						w := randSlice(rng, s.OutC*s.InC/groups*k*k)
						lhs, rhs, mag := 0.0, 0.0, 0.0
						for i, v := range convDirectRun(t, x, w, s) {
							lhs += float64(v) * float64(g[i])
							mag += math.Abs(float64(v) * float64(g[i]))
						}
						for i, v := range convGradRun(t, g, w, s) {
							rhs += float64(v) * float64(x[i])
							mag += math.Abs(float64(v) * float64(x[i]))
						}
						if !(math.Abs(lhs-rhs) <= 1e-5*(1+mag)) {
							t.Errorf("%+v: ⟨conv(x), g⟩ = %v but ⟨x, dX(g)⟩ = %v", s, lhs, rhs)
						}
						cases++
					}
				}
			}
		}
	}
	if cases < 1000 {
		t.Errorf("only %d geometries ran", cases)
	}
}

// convRunShapes are the distinct conv geometries of the WRN-AM and RXT-AM
// repro models on a 32×32 input, named after a layer that runs them.
var convRunShapes = []struct {
	name string
	s    ConvShape
}{
	{"stem_3to8_32_k3s1", ConvShape{InC: 3, OutC: 8, H: 32, W: 32, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"wrn_group1.conv_8to8_32_k3s1", ConvShape{InC: 8, OutC: 8, H: 32, W: 32, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"wrn_group2.conv1_8to16_32_k3s2", ConvShape{InC: 8, OutC: 16, H: 32, W: 32, K: 3, Stride: 2, Pad: 1, Groups: 1}},
	{"wrn_group2.conv2_16to16_16_k3s1", ConvShape{InC: 16, OutC: 16, H: 16, W: 16, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"wrn_group2.shortcut_8to16_32_k1s2", ConvShape{InC: 8, OutC: 16, H: 32, W: 32, K: 1, Stride: 2, Pad: 0, Groups: 1}},
	{"wrn_group3.conv1_16to32_16_k3s2", ConvShape{InC: 16, OutC: 32, H: 16, W: 16, K: 3, Stride: 2, Pad: 1, Groups: 1}},
	{"wrn_group3.conv2_32to32_8_k3s1", ConvShape{InC: 32, OutC: 32, H: 8, W: 8, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"wrn_group3.shortcut_16to32_16_k1s2", ConvShape{InC: 16, OutC: 32, H: 16, W: 16, K: 1, Stride: 2, Pad: 0, Groups: 1}},
	{"rxt_stage1.conv1_8to8_32_k1s1", ConvShape{InC: 8, OutC: 8, H: 32, W: 32, K: 1, Stride: 1, Pad: 0, Groups: 1}},
	{"rxt_stage1.conv2_8to8_32_k3s1g2", ConvShape{InC: 8, OutC: 8, H: 32, W: 32, K: 3, Stride: 1, Pad: 1, Groups: 2}},
	{"rxt_stage1.conv3_8to16_32_k1s1", ConvShape{InC: 8, OutC: 16, H: 32, W: 32, K: 1, Stride: 1, Pad: 0, Groups: 1}},
	{"rxt_stage2.conv1_16to16_32_k1s1", ConvShape{InC: 16, OutC: 16, H: 32, W: 32, K: 1, Stride: 1, Pad: 0, Groups: 1}},
	{"rxt_stage2.conv2_16to16_32_k3s2g2", ConvShape{InC: 16, OutC: 16, H: 32, W: 32, K: 3, Stride: 2, Pad: 1, Groups: 2}},
	{"rxt_stage2.conv3_16to32_16_k1s1", ConvShape{InC: 16, OutC: 32, H: 16, W: 16, K: 1, Stride: 1, Pad: 0, Groups: 1}},
	{"rxt_stage2.shortcut_16to32_32_k1s2", ConvShape{InC: 16, OutC: 32, H: 32, W: 32, K: 1, Stride: 2, Pad: 0, Groups: 1}},
	{"rxt_stage3.conv1_32to32_16_k1s1", ConvShape{InC: 32, OutC: 32, H: 16, W: 16, K: 1, Stride: 1, Pad: 0, Groups: 1}},
	{"rxt_stage3.conv2_32to32_16_k3s2g2", ConvShape{InC: 32, OutC: 32, H: 16, W: 16, K: 3, Stride: 2, Pad: 1, Groups: 2}},
	{"rxt_stage3.conv3_32to64_8_k1s1", ConvShape{InC: 32, OutC: 64, H: 8, W: 8, K: 1, Stride: 1, Pad: 0, Groups: 1}},
	{"rxt_stage3.shortcut_32to64_16_k1s2", ConvShape{InC: 32, OutC: 64, H: 16, W: 16, K: 1, Stride: 2, Pad: 0, Groups: 1}},
}

// TestConvUnitsPerImage pins the work Run schedules per image — its units,
// each one span-kernel call over a tile of 8 output channels and the whole
// output plane — for every convRunShapes forward and the sum over its
// input gradient's residues. A call per output row, or per tile of 4,
// would multiply these: the 8→8 32×32 conv took 64 calls before its tile
// grew to 8 channels × 32 pixels.
func TestConvUnitsPerImage(t *testing.T) {
	want := map[string][2]int{ // forward, dX
		"stem_3to8_32_k3s1":                  {1, 1},
		"wrn_group1.conv_8to8_32_k3s1":       {1, 1},
		"wrn_group2.conv1_8to16_32_k3s2":     {2, 4},
		"wrn_group2.conv2_16to16_16_k3s1":    {2, 2},
		"wrn_group2.shortcut_8to16_32_k1s2":  {2, 1},
		"wrn_group3.conv1_16to32_16_k3s2":    {4, 8},
		"wrn_group3.conv2_32to32_8_k3s1":     {4, 4},
		"wrn_group3.shortcut_16to32_16_k1s2": {4, 2},
		"rxt_stage1.conv1_8to8_32_k1s1":      {1, 1},
		"rxt_stage1.conv2_8to8_32_k3s1g2":    {2, 2},
		"rxt_stage1.conv3_8to16_32_k1s1":     {2, 1},
		"rxt_stage2.conv1_16to16_32_k1s1":    {2, 2},
		"rxt_stage2.conv2_16to16_32_k3s2g2":  {2, 8},
		"rxt_stage2.conv3_16to32_16_k1s1":    {4, 2},
		"rxt_stage2.shortcut_16to32_32_k1s2": {4, 2},
		"rxt_stage3.conv1_32to32_16_k1s1":    {4, 4},
		"rxt_stage3.conv2_32to32_16_k3s2g2":  {4, 16},
		"rxt_stage3.conv3_32to64_8_k1s1":     {8, 4},
		"rxt_stage3.shortcut_32to64_16_k1s2": {8, 4},
	}
	if len(want) != len(convRunShapes) {
		t.Fatalf("%d pinned shapes, %d in convRunShapes", len(want), len(convRunShapes))
	}
	for _, c := range convRunShapes {
		got := [2]int{NewConvPlan(c.s).units(), 0}
		for _, r := range NewConvGradPlan(c.s).subs {
			got[1] += r.units()
		}
		if got != want[c.name] {
			t.Errorf("%s: %v span-kernel calls per image (forward, dX), want %v", c.name, got, want[c.name])
		}
	}
}

// BenchmarkConvRun measures the span kernel's rate on one worker, in
// GMAC/s: one image's ConvPlan.Run (fw) and ConvGradPlan.Run over the
// input gradient's residues (dx) per repro-model geometry, the input
// staged beforehand.
func BenchmarkConvRun(b *testing.B) {
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	run := func(b *testing.B, macs int, f func()) {
		b.ReportAllocs()
		for b.Loop() {
			f()
		}
		b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
	}
	for _, c := range convRunShapes {
		s := c.s
		rng := rand.New(rand.NewSource(1))
		w := randSlice(rng, s.OutC*s.InC/s.Groups*s.K*s.K)
		b.Run(c.name+"/fw", func(b *testing.B) {
			p := NewConvPlan(s)
			x := randSlice(rng, s.InC*s.H*s.W)
			if n := p.StagedLen(); n > 0 {
				staged := make([]float32, n)
				p.Stage(staged, x)
				x = staged
			}
			y := make([]float32, s.OutC*s.OutH()*s.OutW())
			run(b, len(y)*len(p.off), func() { p.Run(y, x, w) })
		})
		b.Run(c.name+"/dx", func(b *testing.B) {
			p := NewConvGradPlan(s)
			dy := randSlice(rng, s.OutC*s.OutH()*s.OutW())
			if n := p.StagedLen(); n > 0 {
				staged := make([]float32, n)
				p.Stage(staged, dy)
				dy = staged
			}
			taps := make([]float32, len(w))
			p.Weights(taps, w)
			out := make([]float32, max(p.SplitLen(), s.InC*s.H*s.W))
			macs := 0
			for _, r := range p.subs {
				macs += r.OutC * r.spans * r.spanPix * len(r.off)
			}
			run(b, macs, func() { p.Run(out, dy, taps) })
		})
	}
}

// TestScratchReuseNoStaleDataAcrossShapes hands the stage and lowering
// passes buffers full of NaN, which is what a recycled arena buffer may
// hold: any element they fail to overwrite would surface as NaN (NaN
// propagates through every accumulation). This pins the "callers must
// fully define the buffers they draw" contract.
func TestScratchReuseNoStaleDataAcrossShapes(t *testing.T) {
	poisoned := func(n int) []float32 {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = float32(math.NaN())
		}
		return buf
	}
	rng := rand.New(rand.NewSource(67))
	for _, s := range []ConvShape{
		{InC: 16, OutC: 16, H: 12, W: 12, K: 3, Stride: 1, Pad: 1, Groups: 1},
		{InC: 3, OutC: 8, H: 30, W: 30, K: 3, Stride: 2, Pad: 1, Groups: 1},
	} {
		x, w := randSlice(rng, s.InC*s.H*s.W), randSlice(rng, s.OutC*s.InC*s.K*s.K)
		cols := s.OutH() * s.OutW()
		want := make([]float32, s.OutC*cols)
		convIm2ColRef(want, x, w, s)

		p := NewConvPlan(s)
		staged := poisoned(p.StagedLen())
		p.Stage(staged, x)
		got := poisoned(s.OutC * cols)
		p.Run(got, staged, w)
		if !bitsEqual(got, want) {
			t.Errorf("%+v: conv over a recycled buffer differs from fresh-buffer reference", s)
		}

		// The im2col path draws its lowering the same way.
		rows := s.InC * s.K * s.K
		buf := poisoned(rows * cols)
		Im2Col(buf, x, s.InC, s.H, s.W, s.K, s.Stride, s.Pad)
		got2 := poisoned(s.OutC * cols)
		MatMulInto(got2, w, buf, s.OutC, rows, cols, false)
		if !bitsEqual(got2, want) {
			t.Errorf("%+v: im2col conv over a recycled buffer differs from reference", s)
		}
	}
}
