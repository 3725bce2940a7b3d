//go:build linux

package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"edgetta/internal/guardpage"
)

// withTwins runs f with the AVX-512 bodies switched off, so every hot
// loop runs its generic twin.
func withTwins(f func()) {
	defer func(on bool) { hasAVX512 = on }(hasAVX512)
	hasAVX512 = false
	f()
}

// needAVX512 skips a test of the vector bodies on a CPU that has none.
func needAVX512(t *testing.T) {
	t.Helper()
	if !hasAVX512 {
		t.Skip("no AVX-512: every hot loop runs its generic twin")
	}
}

// specials are the values a vector body must treat exactly as its twin
// does: signed zeros, NaN, infinities, subnormals, the clamp's bounds and
// their neighbours.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1, math.Nextafter32(1, 2), math.Nextafter32(0, -1), -1, 2, 1e30, -1e30,
}

// sameBits reports whether a and b hold the same bits, except that any
// two NaNs match: when both operands of a sum are NaN, Go does not fix
// whose payload the result keeps, and the compiler commutes the twins'
// additions as it allocates registers.
func sameBits(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// firstDiff returns the first index where got and want differ (sameBits),
// or -1.
func firstDiff(got, want []float32) int {
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// sprinkle overwrites about one element in 40 of img with a special value.
func sprinkle(rng *rand.Rand, img []float32) {
	for i := range img {
		if rng.Intn(40) == 0 {
			img[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// TestJPEGMatchesTwin holds the AVX-512 block transform to
// jpegBlockGeneric, bit for bit, on every image size from 1×1 to 33×33
// (so every partial edge block clamps), at each severity's quant, at
// random quants, at one so fine every coefficient survives and one so
// coarse none does; on images in [-1, 2] and on the same images with
// ±0, NaN, ±Inf and subnormals sprinkled in.
func TestJPEGMatchesTwin(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(63))
	quants := []float32{6, 10, 14, 20, 28, 1e-3, 1e6}
	for i := 0; i < 3; i++ {
		quants = append(quants, 0.5+40*rng.Float32())
	}
	for h := 1; h <= 33; h++ {
		for w := 1; w <= 33; w++ {
			img := make([]float32, 3*h*w)
			for i := range img {
				img[i] = 3*rng.Float32() - 1
			}
			odd := slices.Clone(img)
			sprinkle(rng, odd)
			for _, in := range [][]float32{img, odd} {
				quant := quants[rng.Intn(len(quants))]
				if h == w {
					quant = quants[h%len(quants)]
				}
				want := slices.Clone(in)
				withTwins(func() { jpegQuantize(want, h, w, quant) })
				got := slices.Clone(in)
				jpegQuantize(got, h, w, quant)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("jpeg(%v) on %d×%d: pixel %d is %#x, twin %#x", quant, h, w, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestJPEGRoundsTiesAsTwin builds steps that put coefficients exactly
// halfway between two multiples of their step, so the quantize rounds a
// tie, and holds the AVX-512 block to jpegBlockGeneric on them, bit for
// bit: a rounding that went to even, or toward zero, at a tie shows here,
// while random images almost never make one.
func TestJPEGRoundsTiesAsTwin(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		img := make([]float32, 64)
		for i := range img {
			img[i] = rng.Float32()
		}
		coef := jpegCoefsRef(img)
		var f jpegFrame
		ties := 0
		for v := range f.step {
			for u := range f.step[v] {
				f.step[v][u] = 10
				half := float64(rng.Intn(9)-4) + 0.5
				c := coef[u][v]
				// The step that makes the tie is c/half or one of its
				// nearest neighbours, when one exists.
				step := math.Nextafter(math.Nextafter(c/half, math.Inf(-1)), math.Inf(-1))
				for i := 0; i < 5 && c != 0; i, step = i+1, math.Nextafter(step, math.Inf(1)) {
					if c/step == half {
						f.step[v][u] = step
						ties++
						break
					}
				}
			}
		}
		if ties < 32 {
			t.Fatalf("trial %d: only %d of 64 coefficients fell on a tie", trial, ties)
		}
		want := slices.Clone(img)
		withTwins(func() { jpegBlock(want, 8, 8, 8, &f) })
		got := slices.Clone(img)
		jpegBlock(got, 8, 8, 8, &f)
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("trial %d: pixel %d is %#x, twin %#x", trial, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// jpegCoefsRef is jpegQuantizeRef's forward transform of one whole 8×8
// block: coefficient [u][v] before quantization.
func jpegCoefsRef(img []float32) (coef [8][8]float64) {
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			s := 0.0
			for y := 0; y < 8; y++ {
				for x := 0; x < 8; x++ {
					s += (float64(img[y*8+x])*255 - 128) * dct8[u][y] * dct8[v][x]
				}
			}
			coef[u][v] = s * dctScale(u) * dctScale(v) / 4
		}
	}
	return coef
}

// blurKernels are the kernels the blur families build, as
// TestFastPathsMatchReference lists them: every defocus disk, glass
// blur's disk(0.7), snow's streak, and motion kernels of lengths 3–11 at
// two random angles each.
func blurKernels(rng *rand.Rand) map[string]kernel {
	ks := map[string]kernel{"disk(0.7)": diskKernel(0.7), "snow": motionKernel(5, math.Pi/3)}
	for _, r := range []float64{0.8, 1.2, 1.6, 2.2, 2.8} {
		ks[fmt.Sprintf("disk(%v)", r)] = diskKernel(r)
	}
	for length := 3; length <= 11; length++ {
		for i := 0; i < 2; i++ {
			a := rng.Float64() * math.Pi
			ks[fmt.Sprintf("motion(%d,%.3f)", length, a)] = motionKernel(length, a)
		}
	}
	return ks
}

// TestConvolveMatchesTwin holds convolve's AVX-512 tap rows to
// tapPlaneGeneric, bit for bit, for every blur kernel on rows 1–70 wide
// and planes 1, 3, 8 and 33 rows high, on values in [-1, 2], with the
// specials sprinkled in at even widths.
func TestConvolveMatchesTwin(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(63))
	ks := blurKernels(rng)
	names := make([]string, 0, len(ks))
	for name := range ks {
		names = append(names, name)
	}
	slices.Sort(names)
	for w := 1; w <= 70; w++ {
		for _, h := range []int{1, 3, 8, 33} {
			img := make([]float32, 3*h*w)
			for i := range img {
				img[i] = 3*rng.Float32() - 1
			}
			if w%2 == 0 {
				sprinkle(rng, img)
			}
			for _, name := range names {
				want := make([]float32, len(img))
				withTwins(func() { convolve(want, img, h, w, ks[name]) })
				got := make([]float32, len(img))
				convolve(got, img, h, w, ks[name])
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s on %d×%d: pixel %d is %#x, twin %#x", name, h, w, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestClamp01MatchesTwin holds clamp01's AVX-512 body to its twin, bit for
// bit (NaN payloads too), at lengths 0–70, on values drawn from the
// specials and from [-1, 2].
func TestClamp01MatchesTwin(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(63))
	for n := 0; n <= 70; n++ {
		v := make([]float32, n)
		for i := range v {
			v[i] = 3*rng.Float32() - 1
			if rng.Intn(2) == 0 {
				v[i] = specials[rng.Intn(len(specials))]
			}
		}
		want := slices.Clone(v)
		clamp01Generic(want)
		clamp01(v)
		for i := range v {
			if math.Float32bits(v[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: element %d is %#x, twin %#x", n, i, math.Float32bits(v[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestVectorBodiesStayInsideTheirOperands runs each AVX-512 body with its
// float operands laid flush against a guard page, at their back and then
// at their front, each sized to exactly the extent its wrapper admits: a
// load or store one element outside an operand faults. The JPEG block
// runs at every partial shape, its image operand ending at the block's
// last pixel.
func TestVectorBodiesStayInsideTheirOperands(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(63))
	fill := func(v []float32) []float32 {
		for i := range v {
			v[i] = 3*rng.Float32() - 1
		}
		return v
	}
	ks := blurKernels(rng)
	for _, back := range []bool{false, true} {
		for n := 1; n <= 70; n++ {
			v := fill(guardpage.Floats(t, n, back))
			guardpage.NoFault(t, fmt.Sprintf("clamp01AVX512 n=%d back=%v", n, back), func() { clamp01AVX512(v) })
		}
		for w := 1; w <= 70; w += 3 {
			for _, h := range []int{1, 4} {
				for _, name := range []string{"disk(2.8)", "disk(0.7)", "snow"} {
					taps, wts, rx := kernelTaps(ks[name])
					pw := w + 2*rx
					o := guardpage.Floats(t, h*w, back)
					pad := fill(guardpage.Floats(t, h*pw, back))
					gw := guardpage.Floats(t, len(wts), back)
					copy(gw, wts)
					guardpage.NoFault(t, fmt.Sprintf("tapPlaneAVX512 %s %d×%d back=%v", name, h, w, back), func() {
						tapPlaneAVX512(o, pad, h, w, pw, taps, gw)
					})
				}
			}
		}
		var f jpegFrame
		for v := range f.step {
			for u := range f.step[v] {
				f.step[v][u] = 10 * (1 + float64(u+v)/2)
			}
		}
		for rows := 1; rows <= 8; rows++ {
			for cols := 1; cols <= 8; cols++ {
				for _, w := range []int{cols, cols + 5} {
					p := fill(guardpage.Floats(t, (rows-1)*w+cols, back))
					guardpage.NoFault(t, fmt.Sprintf("jpegBlockAVX512 %d×%d w=%d back=%v", rows, cols, w, back), func() {
						jpegBlockAVX512(p, w, rows, cols, &jpegBasis, &f)
					})
				}
			}
		}
	}
}
