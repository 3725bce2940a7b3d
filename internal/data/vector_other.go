//go:build !amd64

package data

// Without AVX-512 bodies the hot loops run their generic twins.

func clamp01(v []float32) { clamp01Generic(v) }

func tapPlane(o, pad []float32, h, w, pw int, taps []tap, wts []float32) {
	tapPlaneGeneric(o, pad, h, w, pw, taps, wts)
}

func jpegBlock(p []float32, w, rows, cols int, f *jpegFrame) {
	jpegBlockGeneric(p, w, rows, cols, f)
}
