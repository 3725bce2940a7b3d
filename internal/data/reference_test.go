package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestFastPathsMatchReference holds convolve and jpegQuantize to the dense
// loops they replaced, bit for bit, on random images of every size from a
// single pixel up, so each border, clamp and partial-block branch runs:
// every defocus disk, glass blur's disk(0.7), motion kernels of lengths
// 3–11 at random angles, snow's streak, and the five JPEG quant levels.
func TestFastPathsMatchReference(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 8, 9, 13, 32, 33}
	rng := rand.New(rand.NewSource(61))
	kernels := map[string]kernel{"disk(0.7)": diskKernel(0.7), "snow": motionKernel(5, math.Pi/3)}
	for _, r := range []float64{0.8, 1.2, 1.6, 2.2, 2.8} {
		kernels[fmt.Sprintf("disk(%v)", r)] = diskKernel(r)
	}
	for length := 3; length <= 11; length++ {
		for i := 0; i < 2; i++ {
			a := rng.Float64() * math.Pi
			kernels[fmt.Sprintf("motion(%d,%.3f)", length, a)] = motionKernel(length, a)
		}
	}
	for _, h := range sizes {
		for _, w := range sizes {
			img := make([]float32, 3*h*w)
			for i := range img {
				img[i] = rng.Float32()
			}
			for name, k := range kernels {
				want := convolveEachRef(img, h, w, k)
				got := make([]float32, len(img))
				convolve(got, img, h, w, k)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Errorf("%s on %d×%d: pixel %d is %v, reference %v", name, h, w, i, got[i], want[i])
				}
			}
			for _, quant := range []float32{6, 10, 14, 20, 28} {
				want := jpegQuantizeRef(img, h, w, quant)
				got := slices.Clone(img)
				jpegQuantize(got, h, w, quant)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Errorf("jpeg(%v) on %d×%d: pixel %d is %v, reference %v", quant, h, w, i, got[i], want[i])
				}
			}
		}
	}
}

// firstBitDiff returns the first index where a and b differ in their bits,
// or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// convolveEachRef is the dense convolution convolve replaced: it applies
// the kernel to each channel with edge clamping, visiting every weight.
func convolveEachRef(img []float32, h, w int, k kernel) []float32 {
	out := make([]float32, len(img))
	r := k.side / 2
	plane := h * w
	for ch := 0; ch < 3; ch++ {
		src := img[ch*plane : (ch+1)*plane]
		dst := out[ch*plane : (ch+1)*plane]
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				s := float32(0)
				for ky := -r; ky <= r; ky++ {
					for kx := -r; kx <= r; kx++ {
						wv := k.w[(ky+r)*k.side+(kx+r)]
						if wv == 0 {
							continue
						}
						sy, sx := clampInt(y+ky, 0, h-1), clampInt(x+kx, 0, w-1)
						s += wv * src[sy*w+sx]
					}
				}
				dst[y*w+x] = s
			}
		}
	}
	return out
}

// jpegQuantizeRef is the blockwise DCT round trip jpegQuantize replaced:
// one accumulator per coefficient and per pixel, every coefficient summed.
func jpegQuantizeRef(img []float32, h, w int, quant float32) []float32 {
	out := make([]float32, len(img))
	plane := h * w
	var block, coef [8][8]float64
	for ch := 0; ch < 3; ch++ {
		src := img[ch*plane : (ch+1)*plane]
		dst := out[ch*plane : (ch+1)*plane]
		for by := 0; by < h; by += 8 {
			for bx := 0; bx < w; bx += 8 {
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						sy, sx := clampInt(by+y, 0, h-1), clampInt(bx+x, 0, w-1)
						block[y][x] = float64(src[sy*w+sx])*255 - 128
					}
				}
				// Forward 2-D DCT-II.
				for u := 0; u < 8; u++ {
					for v := 0; v < 8; v++ {
						s := 0.0
						for y := 0; y < 8; y++ {
							for x := 0; x < 8; x++ {
								s += block[y][x] * dct8[u][y] * dct8[v][x]
							}
						}
						cu, cv := 1.0, 1.0
						if u == 0 {
							cu = math.Sqrt2 / 2
						}
						if v == 0 {
							cv = math.Sqrt2 / 2
						}
						coef[u][v] = s * cu * cv / 4
					}
				}
				// Quantize: step grows with frequency, scaled by quant.
				for u := 0; u < 8; u++ {
					for v := 0; v < 8; v++ {
						step := float64(quant) * (1 + float64(u+v)/2)
						coef[u][v] = math.Round(coef[u][v]/step) * step
					}
				}
				// Inverse DCT.
				for y := 0; y < 8; y++ {
					for x := 0; x < 8; x++ {
						s := 0.0
						for u := 0; u < 8; u++ {
							for v := 0; v < 8; v++ {
								cu, cv := 1.0, 1.0
								if u == 0 {
									cu = math.Sqrt2 / 2
								}
								if v == 0 {
									cv = math.Sqrt2 / 2
								}
								s += cu * cv * coef[u][v] * dct8[u][y] * dct8[v][x]
							}
						}
						sy, sx := by+y, bx+x
						if sy < h && sx < w {
							dst[sy*w+sx] = float32((s/4 + 128) / 255)
						}
					}
				}
			}
		}
	}
	return out
}
