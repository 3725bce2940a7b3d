// Package data provides the study's image substrate: a deterministic
// synthetic 10-class dataset standing in for CIFAR-10 ("SynCIFAR"), the 15
// CIFAR-10-C corruption families at 5 severity levels, the AugMix-lite
// robust-training augmentation, and streaming batch iterators for online
// test-time adaptation.
//
// Images are float32 CHW planes in [0, 1] with 3 channels.
//
// An image is the same bits on every architecture and CPU. Each product is
// rounded before it is added — by an explicit conversion, as in
// float32(a*b) + c, wherever a compiler could fuse the two into one
// instruction (arm64's does; amd64's does not) — and the AVX-512 bodies of
// the hot loops (vector_amd64.s) repeat their generic twins' operations in
// the same order. math.Sin, math.Cos and math.Exp, behind the class
// templates, the DCT basis and the motion kernels, are outside this
// guarantee on arm64.
package data

import (
	"math"
	"math/rand"
	"slices"
)

// Corruption enumerates the 15 CIFAR-10-C corruption families
// (Hendrycks & Dietterich), reimplemented for 3×H×W float32 images.
type Corruption int

// The corruption families, in CIFAR-10-C's canonical order.
const (
	GaussianNoise Corruption = iota
	ShotNoise
	ImpulseNoise
	DefocusBlur
	GlassBlur
	MotionBlur
	ZoomBlur
	Snow
	Frost
	Fog
	Brightness
	Contrast
	ElasticTransform
	Pixelate
	JPEG
)

// NumCorruptions is the corruption family count.
const NumCorruptions = 15

// AllCorruptions lists every corruption family.
var AllCorruptions = []Corruption{
	GaussianNoise, ShotNoise, ImpulseNoise, DefocusBlur, GlassBlur,
	MotionBlur, ZoomBlur, Snow, Frost, Fog, Brightness, Contrast,
	ElasticTransform, Pixelate, JPEG,
}

var corruptionNames = [...]string{
	"gaussian_noise", "shot_noise", "impulse_noise", "defocus_blur",
	"glass_blur", "motion_blur", "zoom_blur", "snow", "frost", "fog",
	"brightness", "contrast", "elastic_transform", "pixelate", "jpeg",
}

// String returns the CIFAR-10-C corruption name.
func (c Corruption) String() string {
	if c < 0 || int(c) >= len(corruptionNames) {
		return "unknown"
	}
	return corruptionNames[c]
}

// MaxSeverity is the highest severity level, matching CIFAR-10-C.
const MaxSeverity = 5

// Apply returns a corrupted copy of img (3 channels of h×w in [0,1]) at the
// given severity in [1, MaxSeverity]. Stochastic corruptions draw from rng,
// so results are reproducible for a fixed seed.
func Apply(c Corruption, img []float32, h, w, severity int, rng *rand.Rand) []float32 {
	out := slices.Clone(img)
	corrupt(c, out, h, w, severity, rng)
	return out
}

// corrupt is Apply in place: it overwrites out with its corrupted self.
func corrupt(c Corruption, out []float32, h, w, severity int, rng *rand.Rand) {
	if severity < 1 {
		severity = 1
	}
	if severity > MaxSeverity {
		severity = MaxSeverity
	}
	s := severity - 1
	switch c {
	case GaussianNoise:
		sigma := [5]float32{0.06, 0.10, 0.14, 0.20, 0.26}[s]
		for i := range out {
			out[i] += float32(float32(rng.NormFloat64()) * sigma)
		}
	case ShotNoise:
		// Gaussian approximation of Poisson photon noise: variance ∝ signal.
		scale := [5]float32{0.10, 0.16, 0.22, 0.30, 0.38}[s]
		for i := range out {
			v := out[i]
			if v < 0 {
				v = 0
			}
			out[i] += float32(float32(rng.NormFloat64()) * scale * float32(math.Sqrt(float64(v)+0.01)))
		}
	case ImpulseNoise:
		p := [5]float32{0.01, 0.03, 0.06, 0.10, 0.17}[s]
		plane := h * w
		for i := 0; i < plane; i++ {
			if rng.Float32() < p {
				v := float32(0)
				if rng.Float32() < 0.5 {
					v = 1
				}
				for ch := 0; ch < 3; ch++ {
					out[ch*plane+i] = v
				}
			}
		}
	case DefocusBlur:
		radius := [5]float64{0.8, 1.2, 1.6, 2.2, 2.8}[s]
		convolve(out, out, h, w, diskKernel(radius))
	case GlassBlur:
		iters := [5]int{1, 1, 2, 3, 4}[s]
		delta := [5]int{1, 2, 2, 2, 3}[s]
		plane := h * w
		r, g, b := out[:plane], out[plane:2*plane], out[2*plane:3*plane]
		for it := 0; it < iters; it++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dy, dx := rng.Intn(2*delta+1)-delta, rng.Intn(2*delta+1)-delta
					i, j := y*w+x, clampInt(y+dy, 0, h-1)*w+clampInt(x+dx, 0, w-1)
					r[i], r[j] = r[j], r[i]
					g[i], g[j] = g[j], g[i]
					b[i], b[j] = b[j], b[i]
				}
			}
		}
		convolve(out, out, h, w, diskKernel(0.7))
	case MotionBlur:
		length := [5]int{3, 5, 7, 9, 11}[s]
		angle := rng.Float64() * math.Pi
		convolve(out, out, h, w, motionKernel(length, angle))
	case ZoomBlur:
		maxZoom := [5]float64{1.06, 1.11, 1.16, 1.21, 1.26}[s]
		zoomBlur(out, h, w, maxZoom)
	case Snow:
		amount := [5]float32{0.10, 0.15, 0.22, 0.28, 0.35}[s]
		snow(out, h, w, amount, rng)
	case Frost:
		strength := [5]float32{0.25, 0.33, 0.42, 0.52, 0.62}[s]
		frost(out, h, w, strength, rng)
	case Fog:
		t := [5]float32{0.25, 0.35, 0.45, 0.55, 0.65}[s]
		f := plasma(h, w, rng)
		plane := h * w
		for ch := 0; ch < 3; ch++ {
			for i := 0; i < plane; i++ {
				fogv := 0.7 + float32(0.3*f[i])
				out[ch*plane+i] = float32(out[ch*plane+i]*(1-t)) + float32(t*fogv)
			}
		}
	case Brightness:
		b := [5]float32{0.10, 0.18, 0.26, 0.34, 0.42}[s]
		for i := range out {
			out[i] += b
		}
	case Contrast:
		cf := [5]float32{0.70, 0.55, 0.42, 0.30, 0.20}[s]
		mean := float32(0)
		for _, v := range out {
			mean += v
		}
		mean /= float32(len(out))
		for i := range out {
			out[i] = float32((out[i]-mean)*cf) + mean
		}
	case ElasticTransform:
		amp := [5]float64{1.0, 1.6, 2.2, 2.8, 3.5}[s]
		elastic(out, h, w, amp, rng)
	case Pixelate:
		factor := [5]int{2, 2, 3, 4, 5}[s]
		pixelate(out, h, w, factor)
	case JPEG:
		quant := [5]float32{6, 10, 14, 20, 28}[s]
		jpegQuantize(out, h, w, quant)
	default:
		panic("data: unknown corruption")
	}
	clamp01(out)
}

// clamp01Generic sets each element below 0 to 0 and each above 1 to 1;
// NaN and −0 stay as they are.
func clamp01Generic(v []float32) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		} else if x > 1 {
			v[i] = 1
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// kernel is a small dense convolution kernel with odd side length.
type kernel struct {
	side int
	w    []float32
}

func diskKernel(radius float64) kernel {
	r := int(math.Ceil(radius))
	side := 2*r + 1
	k := kernel{side: side, w: make([]float32, side*side)}
	sum := float32(0)
	for y := -r; y <= r; y++ {
		for x := -r; x <= r; x++ {
			if float64(x*x+y*y) <= float64(radius*radius)+0.5 {
				k.w[(y+r)*side+(x+r)] = 1
				sum++
			}
		}
	}
	for i := range k.w {
		k.w[i] /= sum
	}
	return k
}

func motionKernel(length int, angle float64) kernel {
	r := length / 2
	side := 2*r + 1
	k := kernel{side: side, w: make([]float32, side*side)}
	dx, dy := math.Cos(angle), math.Sin(angle)
	n := float32(0)
	for t := -r; t <= r; t++ {
		x := clampInt(int(math.Round(float64(t)*dx))+r, 0, side-1)
		y := clampInt(int(math.Round(float64(t)*dy))+r, 0, side-1)
		if k.w[y*side+x] == 0 {
			k.w[y*side+x] = 1
			n++
		}
	}
	for i := range k.w {
		k.w[i] /= n
	}
	return k
}

// convolve writes to dst the convolution of every h×w plane of src with k,
// clamping reads at the edges; dst may be src. Each output is the sum,
// from +0 and in the kernel's row-major order, of its nonzero weights
// times their pixels, as in a dense loop over the kernel that skips zero
// weights. The zeros are dropped once. Each plane is copied with its rows
// padded by as many copies of their edge pixels as the widest tap reaches,
// so no read clamps a column, and tapPlane adds each tap's weighted source
// row, clamped once, to a whole output row of accumulators.
func convolve(dst, src []float32, h, w int, k kernel) {
	taps, wts, rx := kernelTaps(k)
	pw := w + 2*rx
	pad := make([]float32, h*pw)
	plane := h * w
	for p := 0; p < len(src); p += plane {
		in, out := src[p:p+plane], dst[p:p+plane]
		for y := 0; y < h; y++ {
			row, from := pad[y*pw:(y+1)*pw], in[y*w:(y+1)*w]
			copy(row[rx:], from)
			for x := 0; x < rx; x++ {
				row[x], row[rx+w+x] = from[0], from[w-1]
			}
		}
		tapPlane(out, pad, h, w, pw, taps, wts)
	}
}

// tap places one kernel weight's source row: dy rows from the output row,
// starting at column col of the padded plane.
type tap struct{ dy, col int32 }

// kernelTaps lists k's nonzero weights in row-major order with their taps,
// for rows padded on each side by rx, the widest column reach of a
// nonzero weight.
func kernelTaps(k kernel) (taps []tap, wts []float32, rx int) {
	r := k.side / 2
	taps, wts = make([]tap, 0, len(k.w)), make([]float32, 0, len(k.w))
	for ky := -r; ky <= r; ky++ {
		for kx := -r; kx <= r; kx++ {
			if wv := k.w[(ky+r)*k.side+(kx+r)]; wv != 0 {
				taps, wts = append(taps, tap{int32(ky), int32(kx)}), append(wts, wv)
				rx = max(rx, kx, -kx)
			}
		}
	}
	for i := range taps { // col held dx until rx, the widest reach, was known
		taps[i].col += int32(rx)
	}
	return taps, wts, rx
}

// tapPlaneGeneric sets each row y of the h×w plane o to the sum over the
// taps of wts[t] times the w pixels that start at column taps[t].col of
// row clamp(y+taps[t].dy, 0, h-1) of pad, an h×pw plane: from +0, in tap
// order, each product rounded before it is added.
func tapPlaneGeneric(o, pad []float32, h, w, pw int, taps []tap, wts []float32) {
	for y := 0; y < h; y++ {
		row := o[y*w : (y+1)*w]
		clear(row)
		for i, wt := range wts {
			t := taps[i]
			src := pad[clampInt(y+int(t.dy), 0, h-1)*pw+int(t.col):][:w]
			for x, v := range src {
				row[x] += float32(wt * v)
			}
		}
	}
}

// lerpAxis is one axis of a bilinear sample: the two neighbours' indices
// and the far one's weight.
type lerpAxis struct {
	i0, i1 int
	f      float32
}

// axisAt places fractional coordinate v on an n-long axis, clamped at the
// edges.
func axisAt(v float64, n int) lerpAxis {
	i0 := clampInt(int(math.Floor(v)), 0, n-1)
	f := float32(v - float64(i0))
	if f < 0 {
		f = 0
	}
	return lerpAxis{i0, clampInt(i0+1, 0, n-1), f}
}

// bilerp samples channel plane src (w wide) bilinearly at the point whose
// axes are ay and ax.
func bilerp(src []float32, w int, ay, ax lerpAxis) float32 {
	top := float32(src[ay.i0*w+ax.i0]*(1-ax.f)) + float32(src[ay.i0*w+ax.i1]*ax.f)
	bot := float32(src[ay.i1*w+ax.i0]*(1-ax.f)) + float32(src[ay.i1*w+ax.i1]*ax.f)
	return float32(top*(1-ay.f)) + float32(bot*ay.f)
}

// zoomBlur averages img with six zoomed-in copies of itself, in place. A
// zoom's sample point separates into a row and a column axis, placed once
// per zoom for every channel.
func zoomBlur(img []float32, h, w int, maxZoom float64) {
	const steps = 6
	src := slices.Clone(img)
	plane := h * w
	cy, cx := float64(float64(h-1)/2), float64(float64(w-1)/2)
	rows, cols := make([]lerpAxis, h), make([]lerpAxis, w)
	for step := 1; step <= steps; step++ {
		z := 1 + (maxZoom-1)*float64(step)/steps
		for y := range rows {
			rows[y] = axisAt(cy+(float64(y)-cy)/z, h)
		}
		for x := range cols {
			cols[x] = axisAt(cx+(float64(x)-cx)/z, w)
		}
		for ch := 0; ch < 3; ch++ {
			in, out := src[ch*plane:(ch+1)*plane], img[ch*plane:(ch+1)*plane]
			for y, ay := range rows {
				o := out[y*w : (y+1)*w]
				for x, ax := range cols {
					o[x] += bilerp(in, w, ay, ax)
				}
			}
		}
	}
	inv := float32(1.0 / (steps + 1))
	for i := range img {
		img[i] *= inv
	}
}

func snow(img []float32, h, w int, amount float32, rng *rand.Rand) {
	plane := h * w
	// Sparse bright seeds, streaked diagonally to look like falling snow.
	layer := make([]float32, plane)
	for i := range layer {
		if rng.Float32() < amount*0.08 {
			layer[i] = 0.8 + float32(0.2*rng.Float32())
		}
	}
	whiten := float32(0.3 * amount)
	streak := make([]float32, plane)
	convolve(streak, layer, h, w, motionKernel(5, math.Pi/3))
	for ch := 0; ch < 3; ch++ {
		for i := 0; i < plane; i++ {
			sv := streak[i] * 3 // undo kernel averaging so flakes stay bright
			if sv > 1 {
				sv = 1
			}
			v := img[ch*plane+i]
			// Whiten the scene slightly and composite the flakes on top.
			v = float32(v*(1-whiten)) + whiten
			img[ch*plane+i] = float32(v*(1-sv)) + sv
		}
	}
}

func frost(img []float32, h, w int, strength float32, rng *rand.Rand) {
	plane := h * w
	f := plasma(h, w, rng)
	// Threshold the plasma into crystalline patches.
	for i, v := range f {
		if v > 0.55 {
			f[i] = (v - 0.55) / 0.45
		} else {
			f[i] = 0
		}
	}
	for ch := 0; ch < 3; ch++ {
		tint := [3]float32{0.85, 0.9, 1.0}[ch] // icy blue-white
		for i := 0; i < plane; i++ {
			a := float32(strength * f[i])
			img[ch*plane+i] = float32(img[ch*plane+i]*(1-a)) + float32(a*tint)
		}
	}
}

// plasma generates an h×w diamond-square fractal field in [0,1], the
// classic procedural texture for fog and frost.
func plasma(h, w int, rng *rand.Rand) []float32 {
	size := 1
	for size < h || size < w {
		size *= 2
	}
	n := size + 1
	g := make([]float64, n*n)
	g[0], g[size], g[size*n], g[size*n+size] =
		rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
	scale := 0.5
	for step := size; step > 1; step /= 2 {
		half := step / 2
		// Diamond step.
		for y := half; y < n; y += step {
			for x := half; x < n; x += step {
				avg := float64((g[(y-half)*n+x-half] + g[(y-half)*n+x+half] +
					g[(y+half)*n+x-half] + g[(y+half)*n+x+half]) / 4)
				g[y*n+x] = avg + float64((float64(rng.Float64())-0.5)*scale)
			}
		}
		// Square step.
		for y := 0; y < n; y += half {
			start := half
			if (y/half)%2 == 1 {
				start = 0
			}
			for x := start; x < n; x += step {
				sum, cnt := 0.0, 0.0
				if y >= half {
					sum += g[(y-half)*n+x]
					cnt++
				}
				if y+half < n {
					sum += g[(y+half)*n+x]
					cnt++
				}
				if x >= half {
					sum += g[y*n+x-half]
					cnt++
				}
				if x+half < n {
					sum += g[y*n+x+half]
					cnt++
				}
				g[y*n+x] = sum/cnt + float64((float64(rng.Float64())-0.5)*scale)
			}
		}
		scale *= 0.55
	}
	// Normalize the h×w crop to [0,1].
	out := make([]float32, h*w)
	lo, hi := math.Inf(1), math.Inf(-1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := g[y*n+x]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	span := hi - lo
	if span < 1e-9 {
		span = 1
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = float32((g[y*n+x] - lo) / span)
		}
	}
	return out
}

func elastic(img []float32, h, w int, amp float64, rng *rand.Rand) {
	// Coarse 4×4 displacement grid, bilinearly upsampled — a smooth random
	// warp field.
	const grid = 4
	dyg := make([]float64, grid*grid)
	dxg := make([]float64, grid*grid)
	for i := range dyg {
		dyg[i] = signedUniform(rng) * amp
		dxg[i] = signedUniform(rng) * amp
	}
	// A pixel reads both grids at one point and moves every channel alike.
	src := slices.Clone(img)
	plane := h * w
	for y := 0; y < h; y++ {
		gy := gridAt(y, h, grid)
		y0 := int(gy)
		y1, fy := clampInt(y0+1, 0, grid-1), gy-float64(y0)
		for x := 0; x < w; x++ {
			gx := gridAt(x, w, grid)
			x0 := int(gx)
			x1, fx := clampInt(x0+1, 0, grid-1), gx-float64(x0)
			sample := func(g []float64) float64 {
				top := float64(g[y0*grid+x0]*(1-fx)) + float64(g[y0*grid+x1]*fx)
				bot := float64(g[y1*grid+x0]*(1-fx)) + float64(g[y1*grid+x1]*fx)
				return float64(top*(1-fy)) + float64(bot*fy)
			}
			ay := axisAt(float64(y)+sample(dyg), h)
			ax := axisAt(float64(x)+sample(dxg), w)
			for ch := 0; ch < 3; ch++ {
				img[ch*plane+y*w+x] = bilerp(src[ch*plane:], w, ay, ax)
			}
		}
	}
}

// signedUniform is rng.Float64()·2 − 1, a draw in [−1, 1). The draw and
// its double are each rounded explicitly, so that no build fuses either
// into the next operation.
func signedUniform(rng *rand.Rand) float64 {
	return float64(float64(rng.Float64())*2) - 1
}

// gridAt maps pixel i of an axis n pixels long onto [0, grid-1], the
// axis's first pixel to 0 and its last to grid-1; a one-pixel axis sits at
// 0.
func gridAt(i, n, grid int) float64 {
	if n == 1 {
		return 0
	}
	return float64(i) / float64(n-1) * float64(grid-1)
}

// pixelate replaces every factor×factor block of img by its mean, in place.
func pixelate(img []float32, h, w, factor int) {
	plane := h * w
	for ch := 0; ch < 3; ch++ {
		p := img[ch*plane : (ch+1)*plane]
		for by := 0; by < h; by += factor {
			for bx := 0; bx < w; bx += factor {
				s, n := float32(0), float32(0)
				for y := by; y < by+factor && y < h; y++ {
					for x := bx; x < bx+factor && x < w; x++ {
						s += p[y*w+x]
						n++
					}
				}
				avg := s / n
				for y := by; y < by+factor && y < h; y++ {
					for x := bx; x < bx+factor && x < w; x++ {
						p[y*w+x] = avg
					}
				}
			}
		}
	}
}

// dct8 holds the 8-point DCT-II basis used by the JPEG-style corruption.
var dct8 = func() (d [8][8]float64) {
	for k := 0; k < 8; k++ {
		for i := 0; i < 8; i++ {
			d[k][i] = math.Cos(math.Pi * float64(k) * (2*float64(i) + 1) / 16)
		}
	}
	return d
}()

// dctScale is the DCT-II normalization of frequency k.
func dctScale(k int) float64 {
	if k == 0 {
		return math.Sqrt2 / 2
	}
	return 1
}

// jpegQuantize applies a real 8×8 blockwise DCT to img in place, quantizes
// the coefficients (more coarsely at higher frequency, like a JPEG table),
// and inverts — reproducing blocky JPEG artifacts. A block reads only its
// own pixels, clamped at the image's edges.
func jpegQuantize(img []float32, h, w int, quant float32) {
	var f jpegFrame
	for v := range f.step {
		for u := range f.step[v] {
			f.step[v][u] = float64(quant) * (1 + float64(float64(u+v)/2))
		}
	}
	plane := h * w
	for ch := 0; ch < 3; ch++ {
		p := img[ch*plane : (ch+1)*plane]
		for by := 0; by < h; by += 8 {
			for bx := 0; bx < w; bx += 8 {
				jpegBlock(p[by*w+bx:], w, min(8, h-by), min(8, w-bx), &f)
			}
		}
	}
}

// jpegFrame is one jpegQuantize call's quantization steps, which grow
// with frequency, scaled by quant, and scratch for the vector body: the
// block, its quantized terms and one term's column. Tables indexed [v][u]
// hold coefficient (u, v).
type jpegFrame struct {
	step  [8][8]float64 // [v][u]
	block [8][8]float64 // [y][x], the pixels scaled to ±128
	coef  [8][8]float64 // [v][u], (cu·cv)·q
	col   [8]float64    // c·dct8[u][y] over y
}

// jpegBlockGeneric transforms one 8×8 block in place: its top-left pixel
// is p[0], its rows lie w apart, and only its first rows rows and cols
// columns exist; reads of the others clamp to the last one that does.
//
// Every coefficient and pixel is the dense sum, from +0 in (y, x) or
// (u, v) order, of the same products as the textbook quadruple loop; the
// loops run eight independent sums at once. The inverse leaves out the
// quantized-away coefficients, whose ±0 terms would leave every sum as it
// is: a sum that starts at +0 never becomes −0.
func jpegBlockGeneric(p []float32, w, rows, cols int, f *jpegFrame) {
	var block [8][8]float64
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			block[y][x] = float64(float64(p[min(y, rows-1)*w+min(x, cols-1)])*255) - 128
		}
	}
	type term struct {
		u, v int
		c    float64 // (cu·cv)·coef
	}
	var terms [64]term
	// Forward 2-D DCT-II: coefficient (u, v) sums
	// (block[y][x]·dct8[u][y])·dct8[v][x] over y, then x. It is quantized
	// at once; the nonzero ones are kept in (u, v) order.
	n := 0
	for u := 0; u < 8; u++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for y := 0; y < 8; y++ {
			du := dct8[u][y]
			for x := 0; x < 8; x++ {
				b := block[y][x] * du
				s0 += float64(b * dct8[0][x])
				s1 += float64(b * dct8[1][x])
				s2 += float64(b * dct8[2][x])
				s3 += float64(b * dct8[3][x])
				s4 += float64(b * dct8[4][x])
				s5 += float64(b * dct8[5][x])
				s6 += float64(b * dct8[6][x])
				s7 += float64(b * dct8[7][x])
			}
		}
		for v, s := range [8]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			coef := s * dctScale(u) * dctScale(v) / 4
			step := f.step[v][u]
			if q := math.Round(coef/step) * step; q != 0 {
				terms[n] = term{u, v, dctScale(u) * dctScale(v) * q}
				n++
			}
		}
	}
	// Inverse DCT: pixel (y, x) sums
	// (((cu·cv)·coef)·dct8[u][y])·dct8[v][x] over u, then v.
	for y := 0; y < rows; y++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for _, t := range terms[:n] {
			a := t.c * dct8[t.u][y]
			d := &dct8[t.v]
			s0 += float64(a * d[0])
			s1 += float64(a * d[1])
			s2 += float64(a * d[2])
			s3 += float64(a * d[3])
			s4 += float64(a * d[4])
			s5 += float64(a * d[5])
			s6 += float64(a * d[6])
			s7 += float64(a * d[7])
		}
		row := p[y*w : y*w+cols]
		for x, s := range [8]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			if x < cols {
				row[x] = float32((float64(s/4) + 128) / 255)
			}
		}
	}
}
