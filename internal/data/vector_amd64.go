//go:build amd64

package data

import "edgetta/internal/tensor"

// AVX-512 bodies (vector_amd64.s) for the generator's three hot loops:
// the JPEG corruption's block transform, convolve's tap rows (one call per
// plane) and clamp01. Each computes exactly what its generic twin in
// corrupt.go computes, in the same order, with every product and sum
// rounded on its own, so the streams are bit-identical on every path. They
// run when internal/tensor dispatches to its AVX-512 kernels; tests switch
// hasAVX512 off to run the twins here too.

var hasAVX512 = tensor.HasAVX512()

//go:noescape
func clamp01AVX512(v []float32)

//go:noescape
func tapPlaneAVX512(o, pad []float32, h, w, pw int, taps []tap, wts []float32)

//go:noescape
func jpegBlockAVX512(p []float32, w, rows, cols int, c *jpegConsts, f *jpegFrame)

func clamp01(v []float32) {
	if hasAVX512 {
		clamp01AVX512(v)
		return
	}
	clamp01Generic(v)
}

// tapPlane sets each row of the h×w plane o to its taps' weighted sum
// (see tapPlaneGeneric). The vector body clamps the source rows itself but
// checks no lengths, so every extent it may touch is checked here.
func tapPlane(o, pad []float32, h, w, pw int, taps []tap, wts []float32) {
	if h <= 0 || w <= 0 {
		return
	}
	if len(taps) != len(wts) || len(o) < h*w || len(pad) < h*pw {
		panic("data: tap plane operands too short")
	}
	for _, t := range taps {
		if t.col < 0 || int(t.col)+w > pw {
			panic("data: tap reaches outside its padded row")
		}
	}
	if hasAVX512 {
		tapPlaneAVX512(o, pad, h, w, pw, taps, wts)
		return
	}
	tapPlaneGeneric(o, pad, h, w, pw, taps, wts)
}

// jpegBlock transforms one block (see jpegBlockGeneric). The vector body
// runs the forward sums as eight chains, one per v with u in the lanes,
// and the inverse over the kept terms as eight more, one per y with x in
// the lanes. It checks no lengths, so the extent it touches is checked
// here.
func jpegBlock(p []float32, w, rows, cols int, f *jpegFrame) {
	if rows < 1 || rows > 8 || cols < 1 || cols > 8 || cols > w || len(p) < (rows-1)*w+cols {
		panic("data: JPEG block outside its image")
	}
	if hasAVX512 {
		jpegBlockAVX512(p, w, rows, cols, &jpegBasis, f)
		return
	}
	jpegBlockGeneric(p, w, rows, cols, f)
}

// jpegConsts holds the tables jpegBlockAVX512 derives from dct8, which it
// reads as it is: the DCT basis transposed and the coefficients' scales.
type jpegConsts struct {
	dctT  [8][8]float64 // [i][k]: dct8[k][i]
	scale [8]float64    // dctScale(k)
	cucv  [8][8]float64 // [v][u]: dctScale(u)·dctScale(v)
}

var jpegBasis = func() (c jpegConsts) {
	for a := 0; a < 8; a++ {
		c.scale[a] = dctScale(a)
		for b := 0; b < 8; b++ {
			c.dctT[a][b] = dct8[b][a]
			c.cucv[a][b] = dctScale(b) * dctScale(a)
		}
	}
	return c
}()
