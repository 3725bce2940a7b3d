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

func gatherRows(dst []float32, dstStride int, src []float32, srcStride, rows, cols, step int) {
	gatherRowsGeneric(dst, dstStride, src, srcStride, rows, cols, step)
}

func interleaveRows(dst []float32, dstStride int, a []float32, aStride int, b []float32, bStride, rows, n int) {
	interleaveRowsGeneric(dst, dstStride, a, aStride, b, bStride, rows, n)
}

// SpanKernel names the conv span kernel this process dispatches to.
func SpanKernel() string { return "generic" }

func spanRun(npix int) int { return 1 }

func convSpan(y []float32, yStride int, x, w []float32, wStride int, o offsets, noc, npix, nspan, xStep int) {
	convSpanGeneric(y, yStride, x, w, wStride, o.off, noc, npix, nspan, xStep)
}

func planeSum(acc *[StatLanes]float64, x []float32) { planeSumGeneric(acc, x) }

func planeSumSqDev(acc *[StatLanes]float64, x []float32, mean float32) {
	planeSumSqDevGeneric(acc, x, mean)
}

func normalize(y, x, res []float32, mean, inv, g, b, hi float32, mode int) {
	normalizeGeneric(y, x, res, mean, inv, g, b, hi, mode)
}

func gradSums(sumDy, sumDyXhat *[StatLanes]float64, dy, x, out []float32, mean, inv, hi float32, mode int) {
	gradSumsGeneric(sumDy, sumDyXhat, dy, x, out, mean, inv, hi, mode)
}

func gradInput(dx, dy, x, out []float32, mean, inv, scale, mDy, mDyXhat, hi float32, mode int) {
	gradInputGeneric(dx, dy, x, out, mean, inv, scale, mDy, mDyXhat, hi, mode)
}
