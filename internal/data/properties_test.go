package data

import (
	"math"
	"math/rand"
	"testing"
)

// Pixelate with the same factor is idempotent: block-averaging an already
// block-constant image changes nothing.
func TestPixelateIdempotent(t *testing.T) {
	img := testImage(20)
	rng := rand.New(rand.NewSource(1))
	once := Apply(Pixelate, img, ImageSize, ImageSize, 4, rng)
	twice := Apply(Pixelate, once, ImageSize, ImageSize, 4, rng)
	for i := range once {
		if math.Abs(float64(once[i]-twice[i])) > 1e-5 {
			t.Fatalf("pixelate not idempotent at %d: %v vs %v", i, once[i], twice[i])
		}
	}
}

// JPEG-style quantization is approximately idempotent: re-encoding an
// already-quantized image moves coefficients much less than the first
// pass did.
func TestJPEGApproxIdempotent(t *testing.T) {
	img := testImage(21)
	rng := rand.New(rand.NewSource(2))
	once := Apply(JPEG, img, ImageSize, ImageSize, 5, rng)
	twice := Apply(JPEG, once, ImageSize, ImageSize, 5, rng)
	d1, d2 := 0.0, 0.0
	for i := range img {
		d1 += math.Abs(float64(once[i] - img[i]))
		d2 += math.Abs(float64(twice[i] - once[i]))
	}
	if d2 > d1/2 {
		t.Fatalf("second JPEG pass moved %.3f vs first %.3f — expected near-idempotence", d2, d1)
	}
}

// Brightness at a fixed severity is a deterministic pixel shift (before
// clamping): unclamped interior pixels move by exactly the same offset.
func TestBrightnessUniformShift(t *testing.T) {
	img := testImage(22)
	out := Apply(Brightness, img, ImageSize, ImageSize, 3, rand.New(rand.NewSource(3)))
	var shift float64
	seen := false
	for i := range img {
		if out[i] >= 0.999 || img[i] <= 0.001 {
			continue // clamped
		}
		d := float64(out[i] - img[i])
		if !seen {
			shift, seen = d, true
			continue
		}
		if math.Abs(d-shift) > 1e-5 {
			t.Fatalf("brightness shift not uniform: %v vs %v", d, shift)
		}
	}
	if !seen || shift <= 0 {
		t.Fatalf("no unclamped pixels or nonpositive shift %v", shift)
	}
}

// Contrast maps the image toward its mean: the post-corruption variance
// must be strictly smaller, and the mean preserved (before clamping).
func TestContrastShrinksVariance(t *testing.T) {
	img := testImage(23)
	out := Apply(Contrast, img, ImageSize, ImageSize, 5, rand.New(rand.NewSource(4)))
	variance := func(v []float32) float64 {
		m, s := 0.0, 0.0
		for _, x := range v {
			m += float64(x)
		}
		m /= float64(len(v))
		for _, x := range v {
			s += (float64(x) - m) * (float64(x) - m)
		}
		return s / float64(len(v))
	}
	if variance(out) >= variance(img)/2 {
		t.Fatalf("severity-5 contrast should cut variance ≥2x: %v vs %v", variance(out), variance(img))
	}
}

// Glass blur permutes pixels locally before its final small blur, so the
// per-channel mean is nearly preserved.
func TestGlassBlurPreservesMean(t *testing.T) {
	img := testImage(24)
	out := Apply(GlassBlur, img, ImageSize, ImageSize, 5, rand.New(rand.NewSource(5)))
	plane := ImageSize * ImageSize
	for ch := 0; ch < 3; ch++ {
		var mi, mo float64
		for i := 0; i < plane; i++ {
			mi += float64(img[ch*plane+i])
			mo += float64(out[ch*plane+i])
		}
		mi, mo = mi/float64(plane), mo/float64(plane)
		if math.Abs(mi-mo) > 0.02 {
			t.Fatalf("channel %d mean moved %v -> %v", ch, mi, mo)
		}
	}
}

// TestElasticOnOnePixelAxes applies ElasticTransform to images one pixel
// wide, tall or both, whose axis maps onto the displacement grid's first
// point: every output value is finite and in range.
func TestElasticOnOnePixelAxes(t *testing.T) {
	for _, hw := range [][2]int{{8, 1}, {1, 8}, {1, 1}} {
		h, w := hw[0], hw[1]
		img := make([]float32, 3*h*w)
		for i := range img {
			img[i] = float32(i%7) / 7
		}
		for s := 1; s <= 5; s++ {
			out := Apply(ElasticTransform, img, h, w, s, rand.New(rand.NewSource(int64(s))))
			for i, v := range out {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v < 0 || v > 1 {
					t.Fatalf("%d×%d severity %d: value %d is %v", h, w, s, i, v)
				}
			}
		}
	}
}

// Blur-family corruptions are smoothing operators: total variation must
// decrease.
func TestBlursReduceTotalVariation(t *testing.T) {
	img := testImage(25)
	tv := func(v []float32) float64 {
		s := 0.0
		plane := ImageSize * ImageSize
		for ch := 0; ch < 3; ch++ {
			for y := 0; y < ImageSize; y++ {
				for x := 1; x < ImageSize; x++ {
					s += math.Abs(float64(v[ch*plane+y*ImageSize+x] - v[ch*plane+y*ImageSize+x-1]))
				}
			}
		}
		return s
	}
	for _, c := range []Corruption{DefocusBlur, MotionBlur, ZoomBlur} {
		out := Apply(c, img, ImageSize, ImageSize, 5, rand.New(rand.NewSource(6)))
		if tv(out) >= tv(img) {
			t.Errorf("%v did not reduce total variation (%.1f -> %.1f)", c, tv(img), tv(out))
		}
	}
}

// Noise-family corruptions increase total variation.
func TestNoiseIncreasesTotalVariation(t *testing.T) {
	img := testImage(26)
	tv := func(v []float32) float64 {
		s := 0.0
		plane := ImageSize * ImageSize
		for ch := 0; ch < 3; ch++ {
			for y := 0; y < ImageSize; y++ {
				for x := 1; x < ImageSize; x++ {
					s += math.Abs(float64(v[ch*plane+y*ImageSize+x] - v[ch*plane+y*ImageSize+x-1]))
				}
			}
		}
		return s
	}
	for _, c := range []Corruption{GaussianNoise, ShotNoise, ImpulseNoise} {
		out := Apply(c, img, ImageSize, ImageSize, 5, rand.New(rand.NewSource(7)))
		if tv(out) <= tv(img) {
			t.Errorf("%v did not increase total variation", c)
		}
	}
}
