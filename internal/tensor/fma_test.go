package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fmaTriple draws one (a, b, c) for the fma32 tests from one of seven
// families: raw bit patterns (every class of float32, NaN and Inf
// included), the normal values a conv sees, products of short mantissas
// offset by a c far below or near their last bit (double-rounding ties
// and the values around them), cancellations of a·b by c, results below
// float32's normal range, ties below it, and the specials.
func fmaTriple(rng *rand.Rand) (a, b, c float32) {
	bits := func() float32 { return math.Float32frombits(rng.Uint32()) }
	sign := func(v float32) float32 {
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	// short is ±(1 + m·2⁻¹²)·2^e: its square and products need 25–26
	// bits, so they often sit exactly on a float32 tie.
	short := func(e int) float32 {
		return sign(float32(math.Ldexp(1+float64(rng.Intn(1<<12))/(1<<12), e)))
	}
	switch rng.Intn(7) {
	case 0:
		return bits(), bits(), bits()
	case 1:
		return float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10))
	case 2:
		a, b = short(rng.Intn(20)-10), short(rng.Intn(20)-10)
		p := float64(a) * float64(b)
		_, e := math.Frexp(p)
		return a, b, sign(float32(math.Ldexp(1+rng.Float64(), e-24-rng.Intn(80))))
	case 3:
		a, b = float32(rng.NormFloat64()), float32(rng.NormFloat64())
		c = -float32(float64(a) * float64(b))
		return a, b, math.Float32frombits(math.Float32bits(c) + uint32(rng.Intn(5)) - 2)
	case 4:
		return sign(float32(math.Ldexp(rng.Float64(), -60-rng.Intn(30)))), sign(float32(math.Ldexp(rng.Float64(), -60-rng.Intn(30)))),
			sign(math.Float32frombits(uint32(rng.Intn(1 << 24))))
	case 5:
		// a·b = (2³²±1)·2⁻¹⁸² is half a subnormal step, 2⁻¹⁵⁰, off by a last
		// bit that float64 drops beside a c of k·2⁻¹⁴⁹ near the top of the
		// subnormal range: a tie at coarser bits than a normal one.
		ab := [][2]float64{{641, 6700417}, {65535, 65537}}[rng.Intn(2)]
		return sign(float32(math.Ldexp(ab[0], -91))), sign(float32(math.Ldexp(ab[1], -91))),
			sign(float32(math.Ldexp(float64(1<<21+rng.Intn(6<<20)), -149)))
	}
	sp := []float32{0, negZero, inf(1), inf(-1), nan32, denormal, -denormal, math.SmallestNonzeroFloat32 * 3,
		0x1p-126, -0x1p-126, math.MaxFloat32, -math.MaxFloat32, 1, -1, 0x1p64, 0x1p-64}
	pick := func() float32 {
		if rng.Intn(3) == 0 {
			return float32(rng.NormFloat64())
		}
		return sp[rng.Intn(len(sp))]
	}
	return pick(), pick(), pick()
}

// fmaRef is a·b+c rounded once to float32, through exact big.Float
// arithmetic (600 bits hold any such sum); ok is false when an operand or
// the result is not finite.
func fmaRef(a, b, c float32) (v float32, ok bool) {
	for _, x := range []float32{a, b, c} {
		if math.IsInf(float64(x), 0) || x != x {
			return 0, false
		}
	}
	exact := func(x float32) *big.Float { return new(big.Float).SetPrec(600).SetFloat64(float64(x)) }
	s := new(big.Float).SetPrec(600).Mul(exact(a), exact(b))
	s.Add(s, exact(c))
	if s.Sign() == 0 {
		// An exact zero sum is −0 only when both addends are.
		neg := (a == 0 || b == 0) && math.Signbit(float64(a)) != math.Signbit(float64(b)) && c == 0 && math.Signbit(float64(c))
		if neg {
			return negZero, true
		}
		return 0, true
	}
	v, _ = s.Float32()
	return v, !math.IsInf(float64(v), 0)
}

// fma32Naive is the double-rounding form fma32 must not be: the sum
// rounded to float64, then to float32.
func fma32Naive(a, b, c float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(c)))
}

// doubleRounding is a triple on which rounding twice goes wrong: (1+2⁻¹²)²
// = 1+2⁻¹¹+2⁻²⁴ is a float32 tie, and 2⁻⁸⁰ above it rounds up, to
// 0x3F801001, but float64 drops the 2⁻⁸⁰ and float32 then rounds the tie
// to even, 0x3F801000.
var doubleRounding = [3]float32{1 + 0x1p-12, 1 + 0x1p-12, 0x1p-80}

// TestFMA32RoundsOnce holds fma32 and axpyGeneric to a·b+c rounded once,
// computed exactly with math/big, over generated triples and the pinned
// double-rounding case. It runs on every architecture, the generic twins'
// only check where no FMA instruction is there to compare with.
func TestFMA32RoundsOnce(t *testing.T) {
	a, b, c := doubleRounding[0], doubleRounding[1], doubleRounding[2]
	if got := math.Float32bits(fma32(a, b, c)); got != 0x3F801001 {
		t.Errorf("fma32 of the double-rounding case = %#x, want 0x3F801001", got)
	}
	if got := math.Float32bits(fma32Naive(a, b, c)); got != 0x3F801000 {
		t.Errorf("float32(math.FMA) of the double-rounding case = %#x, want 0x3F801000", got)
	}
	rng := rand.New(rand.NewSource(19))
	checked, naive := 0, 0
	for i := 0; i < 40000; i++ {
		a, b, c := fmaTriple(rng)
		want, ok := fmaRef(a, b, c)
		if !ok {
			continue
		}
		y := []float32{c}
		axpyGeneric(a, []float32{b}, y)
		if got := fma32(a, b, c); !sameF32(got, want) || !sameF32(y[0], want) {
			t.Fatalf("fma32(%g, %g, %g) = %#x, axpyGeneric %#x, exact %#x", a, b, c,
				math.Float32bits(got), math.Float32bits(y[0]), math.Float32bits(want))
		}
		checked++
		if !sameF32(fma32Naive(a, b, c), want) {
			naive++
		}
	}
	t.Logf("%d finite triples, %d of them rounded wrongly by float32(math.FMA)", checked, naive)
	if checked < 30000 || naive == 0 {
		t.Errorf("%d finite triples checked, %d double-rounding cases among them", checked, naive)
	}
}
