package data

import (
	"math"
	"math/rand"

	"edgetta/internal/tensor"
)

// ImageSize is the side length of SynCIFAR images, matching CIFAR-10.
const ImageSize = 32

// NumClasses is the class count, matching CIFAR-10.
const NumClasses = 10

// Generator produces SynCIFAR images: a deterministic synthetic 10-class
// 3×32×32 dataset standing in for CIFAR-10, which the repository does not
// download (ROADMAP.md item 14 discusses the task's difficulty). Each class
// is defined by a fixed mixture of oriented sinusoidal gratings plus a
// class-specific color tint and blob; instances add translation jitter,
// gain variation and pixel noise. The structure is rich enough that
// corruptions cause genuine covariate shift in a trained model's features,
// which is the mechanism BN adaptation exploits.
type Generator struct {
	templates [][]float32 // one 3×H×W template per class
	h, w      int
}

// NewGenerator builds the class templates from a seed. The same seed always
// yields the same dataset.
func NewGenerator(seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{h: ImageSize, w: ImageSize}
	for class := 0; class < NumClasses; class++ {
		g.templates = append(g.templates, makeTemplate(rng, g.h, g.w))
	}
	return g
}

func makeTemplate(rng *rand.Rand, h, w int) []float32 {
	plane := h * w
	t := make([]float32, 3*plane)
	// Class-specific luminance pattern: three oriented gratings.
	type grating struct{ fy, fx, phase, amp float64 }
	gs := make([]grating, 3)
	for i := range gs {
		gs[i] = grating{
			fy:    signedUniform(rng) * 0.9,
			fx:    signedUniform(rng) * 0.9,
			phase: float64(rng.Float64()) * 2 * math.Pi,
			amp:   0.12 + float64(rng.Float64()*0.10),
		}
	}
	// A soft class blob.
	by, bx := float64(rng.Float64()*float64(h)), float64(rng.Float64()*float64(w))
	br := 4 + float64(rng.Float64()*6)
	// Class color tint.
	var tint [3]float64
	for c := range tint {
		tint[c] = 0.35 + float64(rng.Float64()*0.3)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			lum := 0.0
			for _, gr := range gs {
				lum += float64(gr.amp * math.Sin(float64(gr.fy*float64(y))+float64(gr.fx*float64(x))+gr.phase))
			}
			dy, dx := float64(y)-by, float64(x)-bx
			lum += float64(0.25 * math.Exp(-(float64(dy*dy)+float64(dx*dx))/(2*br*br)))
			for c := 0; c < 3; c++ {
				t[c*plane+y*w+x] = float32(tint[c] + lum)
			}
		}
	}
	clamp01(t)
	return t
}

// Sample draws one instance of the given class: the template with circular
// translation jitter, multiplicative gain, and additive pixel noise.
func (g *Generator) Sample(rng *rand.Rand, class int) []float32 {
	out := make([]float32, 3*g.h*g.w)
	g.sampleInto(out, rng, class)
	return out
}

// sampleInto draws Sample's image into out.
func (g *Generator) sampleInto(out []float32, rng *rand.Rand, class int) {
	tpl := g.templates[class]
	plane := g.h * g.w
	sy, sx := rng.Intn(7)-3, rng.Intn(7)-3
	gain := 0.9 + float32(rng.Float32()*0.2)
	k := (sx + g.w) % g.w // output column x shows template column (x+k) mod w
	for c := 0; c < 3; c++ {
		for y := 0; y < g.h; y++ {
			yy := (y + sy + g.h) % g.h
			src := tpl[c*plane+yy*g.w : c*plane+(yy+1)*g.w]
			dst := out[c*plane+y*g.w : c*plane+(y+1)*g.w]
			// The row rotated left by k: its tail, then its head.
			for x, t := range src[k:] {
				dst[x] = float32(t*gain) + float32(float32(rng.NormFloat64())*0.06)
			}
			for x, t := range src[:k] {
				dst[g.w-k+x] = float32(t*gain) + float32(float32(rng.NormFloat64())*0.06)
			}
		}
	}
	clamp01(out)
}

// Batch assembles n samples with uniform-random classes into an NCHW
// tensor plus labels.
func (g *Generator) Batch(rng *rand.Rand, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 3, g.h, g.w)
	labels := make([]int, n)
	plane := 3 * g.h * g.w
	for i := 0; i < n; i++ {
		labels[i] = rng.Intn(NumClasses)
		g.sampleInto(x.Data[i*plane:(i+1)*plane], rng, labels[i])
	}
	return x, labels
}

// CorruptedBatch assembles a batch and corrupts every image with the given
// family and severity.
func (g *Generator) CorruptedBatch(rng *rand.Rand, n int, c Corruption, severity int) (*tensor.Tensor, []int) {
	x, labels := g.Batch(rng, n)
	plane := 3 * g.h * g.w
	for i := 0; i < n; i++ {
		corrupt(c, x.Data[i*plane:(i+1)*plane], g.h, g.w, severity, rng)
	}
	return x, labels
}

// Stream iterates over a corrupted test stream in adaptation-batch chunks,
// the way the paper feeds 10000 CIFAR-10-C samples per corruption to the
// on-device adaptation loop.
type Stream struct {
	gen      *Generator
	rng      *rand.Rand
	corrupt  Corruption
	severity int
	clean    bool
	remain   int
}

// NewStream returns a stream of total corrupted samples.
func (g *Generator) NewStream(seed int64, total int, c Corruption, severity int) *Stream {
	return &Stream{gen: g, rng: rand.New(rand.NewSource(seed)), corrupt: c,
		severity: severity, remain: total}
}

// NewCleanStream returns a stream of uncorrupted samples.
func (g *Generator) NewCleanStream(seed int64, total int) *Stream {
	return &Stream{gen: g, rng: rand.New(rand.NewSource(seed)), clean: true, remain: total}
}

// Next returns the next batch of up to n samples, or ok=false when the
// stream is exhausted.
func (s *Stream) Next(n int) (x *tensor.Tensor, labels []int, ok bool) {
	if s.remain <= 0 {
		return nil, nil, false
	}
	if n > s.remain {
		n = s.remain
	}
	s.remain -= n
	if s.clean {
		x, labels = s.gen.Batch(s.rng, n)
	} else {
		x, labels = s.gen.CorruptedBatch(s.rng, n, s.corrupt, s.severity)
	}
	return x, labels, true
}

// Remaining reports how many samples are left.
func (s *Stream) Remaining() int { return s.remain }

// augmixOps are the light augmentation chains available to AugMixLite.
// As in AugMix, the heavy test-time noise families are excluded so robust
// training does not see the test corruptions themselves.
var augmixOps = []Corruption{Brightness, Contrast, ElasticTransform, Pixelate, MotionBlur, ZoomBlur}

// AugMixLite is the repository's stand-in for AugMix robust training
// (Hendrycks et al.): it mixes the original image with k randomly chosen
// lightly-applied augmentation chains using random convex weights.
func AugMixLite(rng *rand.Rand, img []float32, h, w int) []float32 {
	const k = 2
	weights := make([]float32, k+1)
	sum := float32(0)
	for i := range weights {
		weights[i] = rng.Float32() + 0.1
		sum += weights[i]
	}
	out := make([]float32, len(img))
	for i, v := range img {
		out[i] = v * weights[0] / sum
	}
	for chain := 0; chain < k; chain++ {
		op := augmixOps[rng.Intn(len(augmixOps))]
		sev := 1 + rng.Intn(2)
		aug := Apply(op, img, h, w, sev, rng)
		// Optionally compose a second op for chain depth.
		if rng.Float32() < 0.5 {
			op2 := augmixOps[rng.Intn(len(augmixOps))]
			aug = Apply(op2, aug, h, w, 1, rng)
		}
		wgt := weights[chain+1] / sum
		for i, v := range aug {
			out[i] += float32(v * wgt)
		}
	}
	clamp01(out)
	return out
}
