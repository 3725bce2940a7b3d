package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// sameF32 is bit equality, except that any NaN equals any NaN: which
// payload an arithmetic instruction propagates is not part of the kernels'
// contract (and a rectifier turns every NaN into +0 anyway).
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func inf(sign int) float32 { return float32(math.Inf(sign)) }

var (
	nan32    = float32(math.NaN())
	negZero  = float32(math.Copysign(0, -1))
	denormal = math.Float32frombits(1)
)

// specials are the values a rectifier or a comparison can get wrong.
func specials(cap float32) []float32 {
	s := []float32{nan32, 0, negZero, inf(1), inf(-1), denormal, -denormal,
		1, -1, 0.5, -0.5, math.MaxFloat32, -math.MaxFloat32}
	if cap != 0 {
		s = append(s, cap, math.Nextafter32(cap, 0), math.Nextafter32(cap, inf(1)), 2*cap, -cap)
	}
	return s
}

// oldReLU is the rectifier as a stand-alone layer wrote it before the
// fused kernels, kept as the oracle: a zeroed output that receives v where
// the mask passes and Cap where v reached it.
func oldReLU(v, cap float32) (y float32, pass bool) {
	pass = v > 0 && (cap == 0 || v < cap)
	if pass {
		y = v
	} else if cap != 0 && v >= cap {
		y = cap
	}
	return y, pass
}

// plane returns n values at an offset into a larger allocation, so the
// kernels see addresses that are not vector-aligned. A tenth of the values
// are specials.
func plane(rng *rand.Rand, n, off int, cap float32) []float32 {
	buf := make([]float32, n+off)
	sp := specials(cap)
	for i := range buf {
		if rng.Intn(10) == 0 {
			buf[i] = sp[rng.Intn(len(sp))]
		} else {
			buf[i] = float32(rng.NormFloat64() * 3)
		}
	}
	return buf[off:]
}

// finitePlane is plane without the specials, for operands whose NaN or Inf
// would only turn a whole reduction into NaN.
func finitePlane(rng *rand.Rand, n, off int) []float32 {
	buf := make([]float32, n+off)
	for i := range buf {
		buf[i] = float32(rng.NormFloat64() * 3)
	}
	return buf[off:]
}

var rects = []Rect{{}, {On: true}, {On: true, Cap: 6}}

// TestPlaneKernelsMatchGenericTwins holds every dispatched kernel to its
// generic twin bit for bit, over plane lengths that exercise no vector, a
// whole number of vectors and a remainder, at unaligned addresses, in
// every mode.
func TestPlaneKernelsMatchGenericTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 1; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			x := finitePlane(rng, n, off)
			var a, b [StatLanes]float64
			for i := range a {
				a[i] = rng.NormFloat64()
				b[i] = a[i]
			}
			planeSum(&a, x)
			planeSumGeneric(&b, x)
			for i := range a {
				if !sameF64(a[i], b[i]) {
					t.Fatalf("planeSum n=%d off=%d lane %d: %v vs generic %v", n, off, i, a[i], b[i])
				}
			}
			planeSumSqDev(&a, x, 0.25)
			planeSumSqDevGeneric(&b, x, 0.25)
			for i := range a {
				if !sameF64(a[i], b[i]) {
					t.Fatalf("planeSumSqDev n=%d off=%d lane %d: %v vs generic %v", n, off, i, a[i], b[i])
				}
			}

			for _, rect := range rects {
				xs := plane(rng, n, off, rect.Cap)
				res := plane(rng, n, (off+1)%4, rect.Cap)
				for _, mode := range []int{0, opResidual} {
					m := mode | rect.mode()
					got, want := make([]float32, n), make([]float32, n)
					normalize(got, xs, res, 0.3, 1.7, -0.8, 0.1, rect.hi(), m)
					normalizeGeneric(want, xs, res, 0.3, 1.7, -0.8, 0.1, rect.hi(), m)
					for i := range got {
						if !sameF32(got[i], want[i]) {
							t.Fatalf("normalize n=%d off=%d mode=%d at %d (x=%v): %v vs generic %v",
								n, off, m, i, xs[i], got[i], want[i])
						}
					}
				}

				// src is the gradient's second operand, with specials: the
				// layer input under opAffine, the saved output without.
				dy := finitePlane(rng, n, (off+2)%4)
				src := plane(rng, n, (off+3)%4, rect.Cap)
				for _, gx := range [][]float32{x, src} {
					var s1, p1, s2, p2 [StatLanes]float64
					gradSums(&s1, &p1, dy, gx, 0.3, 1.7, -0.8, 0.1, rect.hi(), rect.mode())
					gradSumsGeneric(&s2, &p2, dy, gx, 0.3, 1.7, -0.8, 0.1, rect.hi(), rect.mode())
					for i := range s1 {
						if !sameF64(s1[i], s2[i]) || !sameF64(p1[i], p2[i]) {
							t.Fatalf("gradSums n=%d off=%d rect=%+v lane %d: (%v, %v) vs generic (%v, %v)",
								n, off, rect, i, s1[i], p1[i], s2[i], p2[i])
						}
					}
				}
				for _, mode := range []int{0, opAffine, opAffine | opVary} {
					m := mode | rect.mode()
					got, want := make([]float32, n), make([]float32, n)
					gradInput(got, dy, src, 0.3, 1.7, -0.8, 0.1, 0.9, 0.02, -0.04, rect.hi(), m)
					gradInputGeneric(want, dy, src, 0.3, 1.7, -0.8, 0.1, 0.9, 0.02, -0.04, rect.hi(), m)
					for i := range got {
						if !sameF32(got[i], want[i]) {
							t.Fatalf("gradInput n=%d off=%d mode=%d at %d: %v vs generic %v", n, off, m, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestEpilogueMatchesThreePassOracle pins the claim the fused pass rests
// on: given equal statistics, normalize → add residual → rectify in one
// kernel produces the bits the three separate scalar passes produced, for
// every special value, on the vector part and on the remainder alike.
func TestEpilogueMatchesThreePassOracle(t *testing.T) {
	a := Affine{Mean: 0.3, InvStd: 1.7, Gamma: -0.8, Beta: 0.1}
	for _, cap := range []float32{0, 6} {
		sp := specials(cap)
		// 3 whole vectors and a 5-element remainder, each special visiting
		// both as the plane rotates.
		const n = 29
		for rot := 0; rot < n; rot++ {
			x, res := make([]float32, n), make([]float32, n)
			for i := range x {
				x[i] = sp[(i+rot)%len(sp)]
				res[i] = sp[(i*7+rot)%len(sp)]
			}
			for _, withRes := range []bool{false, true} {
				for _, rect := range []Rect{{}, {On: true, Cap: cap}} {
					want := make([]float32, n)
					for i, v := range x {
						xh := (v - a.Mean) * a.InvStd
						v = a.Gamma*xh + a.Beta
						if withRes {
							v += res[i] // a residual sum: one rounded add
						}
						if rect.On {
							v, _ = oldReLU(v, cap)
						}
						want[i] = v
					}
					got := make([]float32, n)
					var r []float32
					if withRes {
						r = res
					}
					NormalizePlanes(got, x, r, onePlane(n), a, rect)
					for i := range got {
						if !sameF32(got[i], want[i]) {
							t.Fatalf("cap=%v res=%v rect=%v: x=%v res=%v → %v (%#x), three-pass oracle %v (%#x)",
								cap, withRes, rect.On, x[i], res[i],
								got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestRectifierGateReadsTheSavedOutput checks that the backward gate,
// which sees only the rectifier's output, lets through exactly what the
// old mask — computed from the input — let through, and writes +0 elsewhere.
func TestRectifierGateReadsTheSavedOutput(t *testing.T) {
	for _, cap := range []float32{0, 6} {
		sp := specials(cap)
		const n = 29
		rect := Rect{On: true, Cap: cap}
		for rot := 0; rot < n; rot++ {
			v, out, dy := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range v {
				v[i] = sp[(i+rot)%len(sp)]
				dy[i] = float32(i) - 14.5
			}
			dy[rot] = negZero
			// The identity map moves only −0, to the +0 the rectifier
			// makes of it anyway: out is rect(v).
			NormalizePlanes(out, v, nil, onePlane(n), Affine{InvStd: 1, Gamma: 1}, rect)
			dx := make([]float32, n)
			RectGradPlanes(dx, dy, out, onePlane(n), rect)
			for i := range dx {
				_, pass := oldReLU(v[i], cap)
				want := float32(0)
				if pass {
					want = dy[i]
				}
				if math.Float32bits(dx[i]) != math.Float32bits(want) {
					t.Fatalf("cap=%v v=%v (out %v): dx %v (%#x), old mask gives %v", cap, v[i], out[i],
						dx[i], math.Float32bits(dx[i]), want)
				}
			}
		}
	}
}

// TestRecomputedGateMatchesSavedOutput: the gate a batch norm's backward
// recomputes from its input, z = γ·x̂ + β, lets through exactly what the
// gate read back from the forward's output lets through, element by
// element — at the edges where the two could part: z = +0 and −0, a NaN
// input, z at ReLU6's cap and one ulp either side, subnormal z, γ = 0 (z
// is β, or NaN for an infinite input) and γ < 0. Each case is a channel
// of its own constants; its inputs repeat over a plane long enough for
// the vector routines and a remainder. GradSumsPlanes' gate is held to
// the sums over the gradient RectGradPlanes gated.
func TestRecomputedGateMatchesSavedOutput(t *testing.T) {
	big := math.Nextafter32(6, inf(1))
	for _, tc := range []struct {
		name        string
		gamma, beta float32
		x           []float32 // mean 0 and σ⁻¹ 1: x̂ is x
	}{
		{"z = ±0", 1, 0, []float32{0, negZero, 0.5, -0.5}},
		{"z = −0 from −0 + −0", 1, negZero, []float32{negZero, 0, 1}},
		{"z = +0 from x − β", 1, -0.5, []float32{0.5, 0.25, 0.75}},
		{"NaN input", 1, 0.5, []float32{nan32, 1, -1, nan32}},
		{"z at the cap", 1, 0, []float32{6, math.Nextafter32(6, 0), big, 7, inf(1)}},
		{"z at the cap through γ and β", 2, 1, []float32{2.5, math.Nextafter32(2.5, 0), math.Nextafter32(2.5, 3)}},
		{"subnormal z", 1, 0, []float32{denormal, -denormal, 2 * denormal, math.SmallestNonzeroFloat32}},
		{"subnormal z from γ", 0x1p-100, 0, []float32{0x1p-30, -0x1p-30, 1}},
		{"γ = 0", 0, 0.25, []float32{1, -1, 0, nan32, inf(1), inf(-1)}},
		{"γ = 0 and β = 0", 0, 0, []float32{1, -1, negZero}},
		{"γ < 0", -2, 0.5, []float32{1, -1, 0, 0.25, -3, inf(-1), inf(1)}},
		{"γ < 0 at the cap", -1, 0, []float32{-6, -big, math.Nextafter32(-6, 0), negZero}},
	} {
		for _, rect := range []Rect{{On: true}, {On: true, Cap: 6}} {
			const n = 37 // two vectors of 16, and a remainder
			x, dy := make([]float32, n), make([]float32, n)
			for i := range x {
				x[i] = tc.x[i%len(tc.x)]
				dy[i] = float32(i) - 18.5
			}
			p := onePlane(n)
			a := Affine{Mean: 0, InvStd: 1, Gamma: tc.gamma, Beta: tc.beta}
			out := make([]float32, n)
			NormalizePlanes(out, x, nil, p, a, rect)
			want := make([]float32, n)
			RectGradPlanes(want, dy, out, p, rect)
			got, twin := make([]float32, n), make([]float32, n)
			GradInputPlanes(got, dy, x, p, BNGrad{Affine: a, Scale: 1}, rect)
			gradInputGeneric(twin, dy, x, 0, 1, tc.gamma, tc.beta, 1, 0, 0, rect.hi(), opAffine|rect.mode())
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(twin[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s cap=%v: x=%v → out %v: recomputed gate gives %v (generic %v), saved output %v",
						tc.name, rect.Cap, x[i], out[i], got[i], twin[i], want[i])
				}
			}
			var s1, p1, s2, p2 [StatLanes]float64
			GradSumsPlanes(&s1, &p1, dy, x, p, a, rect)
			GradSumsPlanes(&s2, &p2, want, x, p, a, Rect{})
			for i := range s1 {
				if !sameF64(s1[i], s2[i]) || !sameF64(p1[i], p2[i]) {
					t.Fatalf("%s cap=%v: lane %d: GradSumsPlanes' gate gives (%v, %v), the saved output's (%v, %v)",
						tc.name, rect.Cap, i, s1[i], p1[i], s2[i], p2[i])
				}
			}
		}
	}
}

// TestPlaneStatisticsShape pins the reduction shape itself: lane l of each
// 64-element block is the float32 sum (v0+v2)+(v1+v3) of the block's
// elements l, l+16, l+32, l+48 (squared deviations rounded to float32
// first), widened and added once; every element after the last block goes
// to lane i mod StatLanes on its own, in float64; lanes persist across
// planes, and MergeLanes folds them pairwise — and the result is the mean
// and variance, within the error of the float32 block sums (two rounded
// additions per element, and a rounded square).
func TestPlaneStatisticsShape(t *testing.T) {
	const u = 0x1p-24 // float32's unit roundoff
	blocks := func(want *[StatLanes]float64, x []float32, f func(v float32) float32, wide func(v float32) float64) {
		i := 0
		for ; i+4*StatLanes <= len(x); i += 4 * StatLanes {
			for l := range want {
				want[l] += float64((f(x[i+l]) + f(x[i+l+32])) + (f(x[i+l+16]) + f(x[i+l+48])))
			}
		}
		for ; i < len(x); i++ {
			want[i%StatLanes] += wide(x[i])
		}
	}
	rng := rand.New(rand.NewSource(3))
	var acc, want [StatLanes]float64
	naive, abs := 0.0, 0.0
	for p := 0; p < 3; p++ {
		x := finitePlane(rng, 150+p, p) // two blocks, one whole vector, a tail
		SumPlanes(&acc, x, onePlane(len(x)))
		blocks(&want, x, func(v float32) float32 { return v }, func(v float32) float64 { return float64(v) })
		for _, v := range x {
			naive += float64(v)
			abs += math.Abs(float64(v))
		}
	}
	if acc != want {
		t.Fatalf("lanes %v, want the block order: %v", acc, want)
	}
	m := want
	for step := StatLanes / 2; step > 0; step /= 2 {
		for i := 0; i < step; i++ {
			m[i] += m[i+step]
		}
	}
	got := MergeLanes(&acc)
	if got != m[0] {
		t.Fatalf("MergeLanes = %v, want the pairwise fold %v", got, m[0])
	}
	if math.Abs(got-naive) > (2*u+1e-12)*abs {
		t.Fatalf("MergeLanes = %v, serial float64 sum %v", got, naive)
	}

	x := finitePlane(rng, 150, 1)
	var sq, wantSq [StatLanes]float64
	SumSqDevPlanes(&sq, x, onePlane(len(x)), 0.5)
	blocks(&wantSq, x, func(v float32) float32 { d := v - 0.5; return float32(d * d) },
		func(v float32) float64 { d := float64(v - 0.5); return d * d })
	if sq != wantSq {
		t.Fatalf("squared deviations: lanes %v, want the block order: %v", sq, wantSq)
	}
	ss := 0.0
	for _, v := range x {
		d := float64(v - 0.5)
		ss += d * d
	}
	if got := MergeLanes(&sq); math.Abs(got-ss) > (3*u+1e-12)*ss {
		t.Fatalf("sum of squared deviations %v, serial %v", got, ss)
	}
}

// TestAddPlanesMatchesScalarAdd holds AddPlanes, on the axpy kernel at
// a = 1, to a scalar float32 add, one rounding per element, over plane
// lengths 1–67 and plane strides that leave gaps, which it must not
// touch.
func TestAddPlanesMatchesScalarAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 67; n++ {
		p := Planes{N: 3, Len: n, Stride: n + n%5}
		size := (p.N-1)*p.Stride + p.Len
		y, x := plane(rng, size, n%4, 6), plane(rng, size, (n+1)%4, 6)
		want := append([]float32(nil), y...)
		for k := 0; k < p.N; k++ {
			for i := k * p.Stride; i < k*p.Stride+p.Len; i++ {
				want[i] += x[i]
			}
		}
		AddPlanes(y, x, p)
		for i := range want {
			if !sameF32(y[i], want[i]) {
				t.Fatalf("n=%d at %d: %v vs scalar %v", n, i, y[i], want[i])
			}
		}
	}
}
