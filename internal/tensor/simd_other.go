//go:build !amd64

package tensor

// Portable fallbacks for architectures without hand-written kernels.

func axpy(a float32, x, y []float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	axpyGeneric(a, x, y)
}

func dot(x, y []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	_ = y[len(x)-1]
	return dotGeneric(x, y)
}

func lowerPlanes(dst []float32, dstPlane int, src []float32, srcPlane, planes int, l lowering) {
	lowerPlanesGeneric(dst, dstPlane, src, srcPlane, planes, l)
}

func interleaveRows(dst []float32, dstStride, dstPlane int, a []float32, aStride int, b []float32, bStride, rows, planes, n int) {
	interleaveRowsGeneric(dst, dstStride, dstPlane, a, aStride, b, bStride, rows, planes, n)
}

// SpanKernel names the vector kernels this process dispatches to: the
// conv span kernel and the plane kernels run their generic twins here.
func SpanKernel() string { return "generic" }

// HasAVX512 reports whether this process dispatches to the AVX-512
// kernels: never on this architecture.
func HasAVX512() bool { return false }

func convSpan(y []float32, yStride int, x, w []float32, wStride int, o offsets, noc, npix, nspan, xStep int) {
	convSpanGeneric(y, yStride, x, w, wStride, o.off, noc, npix, nspan, xStep)
}

func sumPlanes(acc *[StatLanes]float64, x []float32, p Planes) { sumPlanesGeneric(acc, x, p) }

func sumSqDevPlanes(acc *[StatLanes]float64, x []float32, p Planes, mean float32) {
	sumSqDevPlanesGeneric(acc, x, p, mean)
}

func normalizePlanes(y, x, res []float32, p Planes, mean, inv, g, b, hi float32, mode int) {
	normalizePlanesGeneric(y, x, res, p, mean, inv, g, b, hi, mode)
}

func gradSumsPlanes(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, p Planes, mean, inv, g, b, hi float32, mode int) {
	gradSumsPlanesGeneric(sumDy, sumDyXhat, dy, x, p, mean, inv, g, b, hi, mode)
}

func gradInputPlanes(dx, dy, x []float32, p Planes, mean, inv, g, b, scale, mDy, mDyXhat, hi float32, mode int) {
	gradInputPlanesGeneric(dx, dy, x, p, mean, inv, g, b, scale, mDy, mDyXhat, hi, mode)
}
