package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/parallel"
)

// spanRoutines lists the vector span routines, each called per span and
// per tile the way its dispatcher calls it, and the two dispatchers.
func spanRoutines() []spanRoutine {
	return []spanRoutine{
		{"convSpan4AVX2", "AVX2", hasAVX2, 4,
			func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
				for k := 0; k < nspan; k++ {
					for j := 0; j+4 <= noc; j += 4 {
						convSpan4AVX2(y[j*yStride+k*npix:], yStride, x[k*xStep:], w[j*wStride:], wStride, off, npix)
					}
				}
			}},
		{"convSpan1AVX2", "AVX2", hasAVX2, 1,
			func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
				for k := 0; k < nspan; k++ {
					for j := 0; j < noc; j++ {
						convSpan1AVX2(y[j*yStride+k*npix:], x[k*xStep:], w[j*wStride:], off, npix)
					}
				}
			}},
		convTileRoutine(8),
		convTileRoutine(4),
		{"convSpanAVX2", "AVX2", hasAVX2, 1, convSpanAVX2},
		{"convSpanAVX512", "AVX-512", hasAVX512, 1, convSpanAVX512},
	}
}

// lowerRoutines lists the vector lowering routines, each called directly
// on the lowering's first source value, as lowerPlanes calls it.
func lowerRoutines() []lowerRoutine {
	direct := func(f func(dst []float32, dstPlane int, src []float32, srcPlane, planes, head, rows, cols, gap, tail, srcRow, step int)) func([]float32, int, []float32, int, int, lowering) {
		return func(dst []float32, dstPlane int, src []float32, srcPlane, planes int, l lowering) {
			f(dst, dstPlane, src[l.at:], srcPlane, planes, l.head, l.rows, l.cols, l.gap, l.tail, l.srcRow, l.step)
		}
	}
	return []lowerRoutine{
		{"lowerPlanesAVX512", hasAVX512, direct(lowerPlanesAVX512)},
		{"lowerPlanesAVX2", hasAVX2, direct(lowerPlanesAVX2)},
	}
}

// convTileRoutine calls convTileAVX512's body of tile channels directly,
// once per whole tile of noc. It is named as the AVX2 routines are, by
// tile height: convSpan8AVX512 and convSpan4AVX512.
func convTileRoutine(tile int) spanRoutine {
	return spanRoutine{fmt.Sprintf("convSpan%dAVX512", tile), "AVX-512", hasAVX512, tile,
		func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
			for j := 0; j+tile <= noc; j += tile {
				convTileAVX512(y[j*yStride:], yStride, x, w[j*wStride:], wStride, off, tile, npix, nspan, xStep)
			}
		}}
}

// TestSpanKernelDispatch logs which span and plane kernels this CPU runs,
// so a test log says which path was tested, and checks the name against
// the feature flags the dispatch reads, and those flags against each
// other: no AVX2 path runs without the FMA bit.
func TestSpanKernelDispatch(t *testing.T) {
	plane := SpanKernel()
	if hasAVX512 {
		plane += " (planeSum avx2)"
	}
	_, _, c1, _ := cpuid(1, 0)
	fma := c1&cpuidFMA != 0
	t.Logf("span kernel: %s, plane kernels: %s (AVX2 %v, AVX-512 %v, FMA bit %v)", SpanKernel(), plane, hasAVX2, hasAVX512, fma)
	want := "generic"
	switch {
	case hasAVX512:
		want = "avx512"
	case hasAVX2:
		want = "avx2"
	}
	if SpanKernel() != want {
		t.Errorf("SpanKernel() = %q, want %q", SpanKernel(), want)
	}
	if hasAVX512 && !hasAVX2 {
		t.Error("AVX-512 dispatch without AVX2, which its leftover channels run on")
	}
	if hasAVX2 && !fma {
		t.Error("AVX2 dispatch without FMA, which axpy and every span routine use")
	}
	// One call takes a tile of 8 channels over the whole plane, on every path.
	if got := NewConvPlan(ConvShape{InC: 8, OutC: 8, H: 32, W: 32, K: 3, Stride: 1, Pad: 1, Groups: 1}).units(); got != 1 {
		t.Errorf("an 8→8 32×32 conv makes %d span-kernel calls per image, want 1", got)
	}
}

// TestFMA32MatchesHardware holds fma32 to the FMA instruction bit for bit
// — axpyAVX2 over one element is one VFMADD213SS — over a million
// generated triples (subnormals, ±0, ±Inf and NaN among them; any NaN
// matches any NaN) and the pinned double-rounding case. It also counts the
// triples float32(math.FMA(...)) gets wrong, which must not be none: the
// draw has to reach the ties where rounding twice fails.
func TestFMA32MatchesHardware(t *testing.T) {
	if !hasAVX2 {
		t.Skip("the CPU has no FMA dispatch")
	}
	hw := func(a, b, c float32) float32 {
		y := []float32{c}
		axpyAVX2(a, []float32{b}, y)
		return y[0]
	}
	a, b, c := doubleRounding[0], doubleRounding[1], doubleRounding[2]
	if got := math.Float32bits(hw(a, b, c)); got != 0x3F801001 {
		t.Errorf("VFMADD213SS of the double-rounding case = %#x, want 0x3F801001", got)
	}
	rng := rand.New(rand.NewSource(23))
	const n = 1 << 20
	naive := 0
	for i := 0; i < n; i++ {
		a, b, c := fmaTriple(rng)
		want := hw(a, b, c)
		if got := fma32(a, b, c); !sameF32(got, want) {
			t.Fatalf("fma32(%g, %g, %g) = %#x, hardware %#x", a, b, c, math.Float32bits(got), math.Float32bits(want))
		}
		if !sameF32(fma32Naive(a, b, c), want) {
			naive++
		}
	}
	t.Logf("%d triples, %d of them rounded wrongly by float32(math.FMA)", n, naive)
	if naive == 0 {
		t.Error("no triple reached a double-rounding tie")
	}
}

// TestConvParityWithoutAVX512 runs the forward parity test again with the
// AVX-512 kernel off, which is the one-span-per-call layout an AVX2-only
// CPU runs, and holds every forward and input gradient of the adjoint
// test's geometries bit-equal across the two layouts.
func TestConvParityWithoutAVX512(t *testing.T) {
	if !hasAVX512 {
		t.Skip("the CPU lacks AVX-512: every other test already runs the AVX2 layout")
	}
	defer func() { hasAVX512 = true }()
	defer parallel.SetWorkers(0)
	hasAVX512 = false
	t.Run("TestConvPackedMatchesIm2ColBitwise", TestConvPackedMatchesIm2ColBitwise)

	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, k - 1, k + 1} {
				for _, groups := range []int{1, 3} {
					for _, hw := range parityPlanes {
						s := ConvShape{InC: 3, OutC: 4 * groups, H: hw[0], W: hw[1], K: k, Stride: stride, Pad: pad, Groups: groups}
						if !s.valid() {
							continue
						}
						x, g := randSlice(rng, s.InC*s.H*s.W), randSlice(rng, s.OutC*s.OutH()*s.OutW())
						w := randSlice(rng, s.OutC*s.InC/groups*k*k)
						var y, dx [2][]float32
						for i, on := range []bool{false, true} {
							hasAVX512 = on
							y[i], dx[i] = convDirectRun(t, x, w, s), convGradRun(t, g, w, s)
						}
						if !bitsEqual(y[0], y[1]) || !bitsEqual(dx[0], dx[1]) {
							t.Errorf("%+v: the AVX-512 and AVX2 layouts differ", s)
						}
					}
				}
			}
		}
	}
}

// planeCall is one call of each of the five plane kernels over the same
// channel: its placement, its operands — x and dy finite, xs, res and src
// with specials, res absent (nil) without the residual step — the lanes
// every reduction starts from, the affine map's γ and β, and the mode:
// opAffine, opResidual and opVary as drawn, plus the rectifier's bit. The
// reductions read x; src is the input gradient's second operand: the layer
// input its gate is recomputed from under opAffine, the rectifier's saved
// output without.
type planeCall struct {
	p                   Planes
	x, xs, res, dy, src []float32
	acc                 [StatLanes]float64
	gamma, beta         float32
	rect                Rect
	mode                int
}

// The channel constants every planeCall shares.
const (
	pcMean, pcInv                   = 0.3, 1.7
	pcScale, pcMeanDy, pcMeanDyXhat = 0.9, 0.02, -0.04
)

// The γ and β a planeCall draws from: the sign of γ flips what the gate
// passes, γ = 0 makes every z the constant β, and a −0 β lets a z of −0
// through the sum.
var (
	pcGammas = []float32{-0.8, 1.1, 0, 2.5}
	pcBetas  = []float32{0.1, 0, negZero, -0.25}
)

// newPlaneCall fills a call over p whose operands alloc lays out, each of
// p's extent. Odd lanes of acc start at −0, so a lane addition outside a
// plane's tail (which would make it +0) shows.
func newPlaneCall(rng *rand.Rand, p Planes, mode int, rect Rect, alloc func(n int) []float32) *planeCall {
	n := (p.N-1)*p.Stride + p.Len
	fill := func(src []float32) []float32 {
		dst := alloc(n)
		copy(dst, src)
		return dst
	}
	c := &planeCall{p: p, rect: rect, mode: mode | rect.mode(),
		gamma: pcGammas[rng.Intn(len(pcGammas))], beta: pcBetas[rng.Intn(len(pcBetas))],
		x: fill(finitePlane(rng, n, 0)), xs: fill(plane(rng, n, 0, rect.Cap)), dy: fill(finitePlane(rng, n, 0)),
		src: fill(plane(rng, n, 0, rect.Cap))}
	if mode&opResidual != 0 {
		c.res = fill(plane(rng, n, 0, rect.Cap))
	}
	for i := range c.acc {
		c.acc[i] = rng.NormFloat64()
		if i%2 == 1 {
			c.acc[i] = math.Copysign(0, -1)
		}
	}
	return c
}

// planeResult is what the five kernels of a planeCall wrote: four lane
// sets, and the normalize output y and input gradient dx, laid out as the
// operands are and NaN outside the planes.
type planeResult struct {
	sum, sq, sDy, sDyXhat [StatLanes]float64
	y, dx                 []float32
}

func (c *planeCall) newResult(alloc func(n int) []float32) *planeResult {
	r := &planeResult{sum: c.acc, sq: c.acc, sDy: c.acc, sDyXhat: c.acc}
	for _, s := range []*[]float32{&r.y, &r.dx} {
		*s = alloc((c.p.N-1)*c.p.Stride + c.p.Len)
		for i := range *s {
			(*s)[i] = nan32
		}
	}
	return r
}

// planeRoutine runs the five kernels of a call one way.
type planeRoutine struct {
	name string
	has  bool
	run  func(c *planeCall, r *planeResult)
}

// planeRoutines lists every way this CPU can run the plane kernels: the
// dispatch, the dispatch with the AVX-512 routines off (the AVX2 path),
// the dispatch writing over its input, and each vector routine called
// directly.
func planeRoutines() []planeRoutine {
	return []planeRoutine{
		{"dispatch", true, runPlanesDispatch},
		{"dispatch without AVX-512", hasAVX512, func(c *planeCall, r *planeResult) {
			defer func() { hasAVX512 = true }()
			hasAVX512 = false
			runPlanesDispatch(c, r)
		}},
		{"dispatch in place", true, func(c *planeCall, r *planeResult) {
			for k := 0; k < c.p.N; k++ { // the planes only: the gaps stay NaN
				copy(c.p.at(r.y, k), c.p.at(c.xs, k))
				copy(c.p.at(r.dx, k), c.p.at(c.dy, k))
			}
			sumPlanes(&r.sum, c.x, c.p)
			sumSqDevPlanes(&r.sq, c.x, c.p, pcMean)
			normalizePlanes(r.y, r.y, c.res, c.p, pcMean, pcInv, c.gamma, c.beta, c.rect.hi(), c.mode)
			gradSumsPlanes(&r.sDy, &r.sDyXhat, c.dy, c.x, c.p, pcMean, pcInv, c.gamma, c.beta, c.rect.hi(), c.mode)
			gradInputPlanes(r.dx, r.dx, c.src, c.p, pcMean, pcInv, c.gamma, c.beta, pcScale, pcMeanDy, pcMeanDyXhat, c.rect.hi(), c.mode)
		}},
		{"AVX2 routines", hasAVX2, runPlanesAVX2},
		{"AVX-512 routines", hasAVX512, runPlanesAVX512},
	}
}

func runPlanesGeneric(c *planeCall, r *planeResult) {
	hi := c.rect.hi()
	for k := 0; k < c.p.N; k++ {
		x, dy, src := c.p.at(c.x, k), c.p.at(c.dy, k), c.p.at(c.src, k)
		planeSumGeneric(&r.sum, x)
		planeSumSqDevGeneric(&r.sq, x, pcMean)
		normalizeGeneric(c.p.at(r.y, k), c.p.at(c.xs, k), c.p.at(c.res, k), pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
		gradSumsGeneric(&r.sDy, &r.sDyXhat, dy, x, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
		gradInputGeneric(c.p.at(r.dx, k), dy, src, pcMean, pcInv, c.gamma, c.beta, pcScale, pcMeanDy, pcMeanDyXhat, hi, c.mode)
	}
}

func runPlanesDispatch(c *planeCall, r *planeResult) {
	hi := c.rect.hi()
	sumPlanes(&r.sum, c.x, c.p)
	sumSqDevPlanes(&r.sq, c.x, c.p, pcMean)
	normalizePlanes(r.y, c.xs, c.res, c.p, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
	gradSumsPlanes(&r.sDy, &r.sDyXhat, c.dy, c.x, c.p, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
	gradInputPlanes(r.dx, c.dy, c.src, c.p, pcMean, pcInv, c.gamma, c.beta, pcScale, pcMeanDy, pcMeanDyXhat, hi, c.mode)
}

// runPlanesAVX2 calls the AVX2 routines as the dispatch does on an
// AVX2-only CPU, one call per channel when its planes are whole vectors —
// of StatLanes for the reductions, of 8 for the maps. The dispatch hands
// any other channel to the generic twins alone; here each routine still
// takes every plane's vector part, the generic twin the rest, so the
// routines stay checked on partial planes.
func runPlanesAVX2(c *planeCall, r *planeResult) {
	hi, p := c.rect.hi(), c.p
	if p.Len%StatLanes == 0 {
		planeSumAVX2(&r.sum, c.x, p.Len, p.N, p.Stride)
		planeSumSqDevAVX2(&r.sq, c.x, p.Len, p.N, p.Stride, pcMean)
		gradSumsAVX2(&r.sDy, &r.sDyXhat, c.dy, c.x, p.Len, p.N, p.Stride, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
	} else {
		n := p.Len &^ (StatLanes - 1)
		for k := 0; k < p.N; k++ {
			x, dy := p.at(c.x, k), p.at(c.dy, k)
			if n > 0 {
				planeSumAVX2(&r.sum, x, n, 1, n)
				planeSumSqDevAVX2(&r.sq, x, n, 1, n, pcMean)
				gradSumsAVX2(&r.sDy, &r.sDyXhat, dy, x, n, 1, n, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
			}
			planeSumGeneric(&r.sum, x[n:])
			planeSumSqDevGeneric(&r.sq, x[n:], pcMean)
			gradSumsGeneric(&r.sDy, &r.sDyXhat, dy[n:], x[n:], pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
		}
	}
	if p.Len%8 == 0 {
		normalizeAVX2(r.y, c.xs, c.res, p.Len, p.N, p.Stride, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
		gradInputAVX2(r.dx, c.dy, c.src, p.Len, p.N, p.Stride, pcMean, pcInv, c.gamma, c.beta, pcScale, pcMeanDy, pcMeanDyXhat, hi, c.mode)
		return
	}
	n := p.Len &^ 7
	for k := 0; k < p.N; k++ {
		xs, res, dy, src := p.at(c.xs, k), p.at(c.res, k), p.at(c.dy, k), p.at(c.src, k)
		y, dx := p.at(r.y, k), p.at(r.dx, k)
		if n > 0 {
			normalizeAVX2(y, xs, res, n, 1, n, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
			gradInputAVX2(dx, dy, src, n, 1, n, pcMean, pcInv, c.gamma, c.beta, pcScale, pcMeanDy, pcMeanDyXhat, hi, c.mode)
		}
		if res != nil {
			res = res[n:]
		}
		normalizeGeneric(y[n:], xs[n:], res, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
		gradInputGeneric(dx[n:], dy[n:], src[n:], pcMean, pcInv, c.gamma, c.beta, pcScale, pcMeanDy, pcMeanDyXhat, hi, c.mode)
	}
}

// runPlanesAVX512 calls the AVX-512 routines as their dispatch does — an
// absent operand is replaced by another operand of the call — and the
// AVX2 planeSum, which has no AVX-512 twin, the same way.
func runPlanesAVX512(c *planeCall, r *planeResult) {
	hi, p := c.rect.hi(), c.p
	res, src := c.res, c.src
	if res == nil {
		res = c.xs
	}
	if c.mode&(opRect|opVary) == 0 {
		src = c.dy
	}
	sumPlanes(&r.sum, c.x, p)
	sumSqDevPlanesAVX512(&r.sq, c.x, p.Len, p.N, p.Stride, pcMean)
	normalizePlanesAVX512(r.y, c.xs, res, p.Len, p.N, p.Stride, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
	gradSumsPlanesAVX512(&r.sDy, &r.sDyXhat, c.dy, c.x, p.Len, p.N, p.Stride, pcMean, pcInv, c.gamma, c.beta, hi, c.mode)
	gradInputPlanesAVX512(r.dx, c.dy, src, p.Len, p.N, p.Stride, pcMean, pcInv, c.gamma, c.beta, pcScale, pcMeanDy, pcMeanDyXhat, hi, c.mode)
}

// check runs every plane routine this CPU has on the call, each into a
// result alloc lays out, and holds it to the generic twins bit for bit.
// wrap runs each routine (under a fault check, for the guard-page tests).
func (c *planeCall) check(t *testing.T, alloc func(n int) []float32, wrap func(what string, f func())) {
	t.Helper()
	want := c.newResult(alloc)
	runPlanesGeneric(c, want)
	for _, rt := range planeRoutines() {
		if !rt.has {
			continue
		}
		got := c.newResult(alloc)
		what := fmt.Sprintf("%s %+v mode %#x rect %+v", rt.name, c.p, c.mode, c.rect)
		wrap(what, func() { rt.run(c, got) })
		for name, lanes := range map[string][2]*[StatLanes]float64{
			"sum": {&got.sum, &want.sum}, "sum of squared deviations": {&got.sq, &want.sq},
			"sum dy": {&got.sDy, &want.sDy}, "sum dy·x̂": {&got.sDyXhat, &want.sDyXhat}} {
			for i := range lanes[0] {
				if !sameF64(lanes[0][i], lanes[1][i]) {
					t.Fatalf("%s: %s lane %d = %v, generic %v", what, name, i, lanes[0][i], lanes[1][i])
				}
			}
		}
		for name, v := range map[string][2][]float32{"normalize": {got.y, want.y}, "input gradient": {got.dx, want.dx}} {
			for i := range v[0] {
				if !sameF32(v[0][i], v[1][i]) {
					t.Fatalf("%s: %s at %d = %v, generic %v", what, name, i, v[0][i], v[1][i])
				}
			}
		}
	}
}

// TestPlaneChannelsMatchGenericTwins holds every plane routine, over
// several planes of one channel, to the generic twins bit for bit: plane
// lengths with and without a remainder, strides with gaps between the
// planes (which must stay unwritten), every mode and rectifier.
func TestPlaneChannelsMatchGenericTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	alloc := func(n int) []float32 { return make([]float32, n) }
	run := func(_ string, f func()) { f() }
	for _, plen := range []int{1, 7, 15, 16, 17, 33, 64, 70} {
		for _, n := range []int{1, 2, 5} {
			for _, gap := range []int{0, 3, 16} {
				for mode := 0; mode < 8; mode++ { // opAffine, opResidual, opVary as 1, 2, 4
					m := mode&3 | (mode&4)<<1
					for _, rect := range rects {
						newPlaneCall(rng, Planes{N: n, Len: plen, Stride: plen + gap}, m, rect, alloc).check(t, alloc, run)
					}
				}
			}
		}
	}
}

// bnChannels runs a batch-norm forward and backward over an NCHW tensor
// with the plane kernels, one channel at a time as internal/nn does:
// statistics, the normalize with a rectifier (and a residual when res is
// not nil), the gradient sums and the input gradient. Without a residual
// the backward recomputes the rectifier's gate from x; with one it reads
// the gate back from y first, as the residual moved what the rectifier saw.
func bnChannels(x, res, grad []float32, n, ch, plane int, rect Rect) (y, dx []float32, sums []float64) {
	y, dx = make([]float32, len(x)), make([]float32, len(x))
	dy := grad
	if res != nil && rect.On {
		dy = make([]float32, len(x))
	}
	cnt := float64(n * plane)
	for c := 0; c < ch; c++ {
		p, o := Planes{N: n, Len: plane, Stride: ch * plane}, c*plane
		var acc [StatLanes]float64
		SumPlanes(&acc, x[o:], p)
		mean := float32(MergeLanes(&acc) / cnt)
		acc = [StatLanes]float64{}
		SumSqDevPlanes(&acc, x[o:], p, mean)
		inv := float32(1 / math.Sqrt(MergeLanes(&acc)/cnt+1e-5))
		a := Affine{Mean: mean, InvStd: inv, Gamma: 1.1, Beta: -0.2}
		gate := rect
		if res != nil {
			NormalizePlanes(y[o:], x[o:], res[o:], p, a, rect)
			if rect.On {
				RectGradPlanes(dy[o:], grad[o:], y[o:], p, rect)
			}
			gate = Rect{}
		} else {
			NormalizePlanes(y[o:], x[o:], nil, p, a, rect)
		}
		var s1, s2 [StatLanes]float64
		GradSumsPlanes(&s1, &s2, dy[o:], x[o:], p, a, gate)
		sDy, sDyXhat := MergeLanes(&s1), MergeLanes(&s2)
		GradInputPlanes(dx[o:], dy[o:], x[o:], p, BNGrad{Affine: a, Scale: 1.1 * inv,
			MeanDy: float32(sDy / cnt), MeanDyXhat: float32(sDyXhat / cnt), Vary: true}, gate)
		sums = append(sums, sDy, sDyXhat)
	}
	return y, dx, sums
}

// TestPlaneParityWithoutAVX512 runs the plane twin test again with the
// AVX-512 routines off, which is the path an AVX2-only CPU runs, and holds
// a batch-norm forward and backward over whole channels bit-equal across
// the two paths.
func TestPlaneParityWithoutAVX512(t *testing.T) {
	if !hasAVX512 {
		t.Skip("the CPU lacks AVX-512: every other test already runs the AVX2 path")
	}
	defer func() { hasAVX512 = true }()
	hasAVX512 = false
	t.Run("TestPlaneKernelsMatchGenericTwins", TestPlaneKernelsMatchGenericTwins)

	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][3]int{{5, 3, 8 * 8}, {3, 4, 7 * 9}, {2, 6, 3 * 3}, {4, 2, 32 * 32}} {
		n, ch, plane := shape[0], shape[1], shape[2]
		x, res, grad := randSlice(rng, n*ch*plane), randSlice(rng, n*ch*plane), randSlice(rng, n*ch*plane)
		for _, rect := range rects {
			for _, r := range [][]float32{res, nil} {
				var y, dx [2][]float32
				var sums [2][]float64
				for i, on := range []bool{false, true} {
					hasAVX512 = on
					y[i], dx[i], sums[i] = bnChannels(x, r, grad, n, ch, plane, rect)
				}
				same := bitsEqual(y[0], y[1]) && bitsEqual(dx[0], dx[1])
				for i := range sums[0] {
					same = same && math.Float64bits(sums[0][i]) == math.Float64bits(sums[1][i])
				}
				if !same {
					t.Errorf("shape %v rect %+v residual %v: the AVX-512 and AVX2 paths differ", shape, rect, r != nil)
				}
			}
		}
	}
}

// BenchmarkPlaneKernels times each plane kernel on one hot channel through
// its dispatch, on the AVX-512 and the AVX2 path: one plane of 1,024
// elements, and batch-50 channels of the repro models' 32×32, 16×16 and
// 8×8 planes (RXT's 64 channels apart), where the AVX2 path makes one call
// per plane and the AVX-512 one per channel.
func BenchmarkPlaneKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		p    Planes
	}{
		{"1x1024", onePlane(1024)},
		{"50x32x32", Planes{N: 50, Len: 1024, Stride: 64 * 1024}},
		{"50x16x16", Planes{N: 50, Len: 256, Stride: 64 * 256}},
		{"50x8x8", Planes{N: 50, Len: 64, Stride: 64 * 64}},
	}
	for _, sh := range shapes {
		p := sh.p
		n := (p.N-1)*p.Stride + p.Len
		x, res, dy, y := randSlice(rng, n), randSlice(rng, n), randSlice(rng, n), make([]float32, n)
		hi, rect := Rect{On: true}.hi(), Rect{On: true}.mode()
		kernels := []struct {
			name string
			run  func()
		}{
			{"sum", func() { var acc [StatLanes]float64; sumPlanes(&acc, x, p) }},
			{"sumsqdev", func() { var acc [StatLanes]float64; sumSqDevPlanes(&acc, x, p, 0.1) }},
			{"normalize", func() {
				normalizePlanes(y, x, res, p, 0.1, 1.2, 0.9, 0.05, hi, opAffine|opResidual|rect)
			}},
			{"gradsums", func() {
				var s1, s2 [StatLanes]float64
				gradSumsPlanes(&s1, &s2, dy, x, p, 0.1, 1.2, 0.9, 0.05, hi, rect)
			}},
			{"gradinput", func() {
				gradInputPlanes(y, dy, x, p, 0.1, 1.2, 0.9, 0.05, 0.9, 0.01, 0.02, hi, opAffine|opVary|rect)
			}},
		}
		for _, k := range kernels {
			for _, path := range []string{"avx512", "avx2"} {
				b.Run(sh.name+"/"+k.name+"/"+path, func(b *testing.B) {
					if path == "avx512" && !hasAVX512 || !hasAVX2 {
						b.Skip("the CPU lacks the path")
					}
					defer func(on bool) { hasAVX512 = on }(hasAVX512)
					hasAVX512 = path == "avx512"
					b.SetBytes(int64(4 * p.N * p.Len))
					for i := 0; i < b.N; i++ {
						k.run()
					}
				})
			}
		}
	}
}

// BenchmarkConvStagePaths times each staged repro shape's forward Stage
// and the dX Stage of dY on the AVX-512 and the AVX2 lowering routine side
// by side: Stage calls no other dispatched kernel, so the pair differs in
// that routine alone.
func BenchmarkConvStagePaths(b *testing.B) {
	for _, c := range stagedShapes() {
		g := NewConvGradPlan(c.s)
		for _, pl := range []struct {
			name string
			p    *ConvPlan
		}{{"fw", NewConvPlan(c.s)}, {"dx", &g.ConvPlan}} {
			if pl.p.StagedLen() == 0 {
				continue
			}
			src := randSlice(rand.New(rand.NewSource(1)), pl.p.InC*pl.p.H*pl.p.W)
			dst := make([]float32, pl.p.StagedLen())
			for _, path := range []string{"avx512", "avx2"} {
				b.Run(c.name+"/"+pl.name+"/"+path, func(b *testing.B) {
					if path == "avx512" && !hasAVX512 || !hasAVX2 {
						b.Skip("the CPU lacks the path")
					}
					defer func(on bool) { hasAVX512 = on }(hasAVX512)
					hasAVX512 = path == "avx512"
					for b.Loop() {
						pl.p.Stage(dst, src)
					}
				})
			}
		}
	}
}
