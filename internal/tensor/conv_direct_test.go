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

// TestConvPackedGenericMatchesSIMD pins the portable span kernel against
// whatever vector kernel the build dispatches to (AVX2 mul+add must be
// bit-identical on every CPU), over every tile height and tail width, with
// the destination bracketed by canaries.
func TestConvPackedGenericMatchesSIMD(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const rows, reach = 37, 90
	for noc := 1; noc <= 9; noc++ {
		for _, npix := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 24, 31, 32, 33, 47, 71} {
			off := make([]int32, rows)
			maxOff := 0
			for i := range off {
				off[i] = int32(rng.Intn(reach))
				maxOff = max(maxOff, int(off[i]))
			}
			x, xOK := guarded(maxOff + npix)
			copy(x, randSlice(rng, len(x)))
			wStride, yStride := rows+3, npix+5
			w := randSlice(rng, noc*wStride)
			got, gotOK := guarded((noc-1)*yStride + npix)
			want := make([]float32, len(got))
			convSpan(got, yStride, x, w, wStride, off, noc, npix)
			convSpanGeneric(want, yStride, x, w, wStride, off, noc, npix)
			for j := 0; j < noc; j++ {
				if !bitsEqual(got[j*yStride:][:npix], want[j*yStride:][:npix]) {
					t.Errorf("noc=%d npix=%d: channel %d differs from the generic kernel", noc, npix, j)
				}
				if j > 0 {
					// The gap between two channels' spans belongs to
					// neither: still the canary value.
					for _, v := range got[(j-1)*yStride+npix : j*yStride] {
						if v == v {
							t.Errorf("noc=%d npix=%d: store between the spans of channels %d and %d", noc, npix, j-1, j)
						}
					}
				}
			}
			if !xOK() || !gotOK() {
				t.Errorf("noc=%d npix=%d: store outside the span", noc, npix)
			}
		}
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
