package tensor

// One-plane forms of the channel dispatchers, the shape the twin tests
// compare against the generic twins: each is its dispatcher over a single
// plane, so it runs whichever routine the dispatcher picks on this CPU.

// onePlane is n contiguous elements taken as a single plane.
func onePlane(n int) Planes { return Planes{N: 1, Len: n, Stride: n} }

func planeSum(acc *[StatLanes]float64, x []float32) { sumPlanes(acc, x, onePlane(len(x))) }

func planeSumSqDev(acc *[StatLanes]float64, x []float32, mean float32) {
	sumSqDevPlanes(acc, x, onePlane(len(x)), mean)
}

func normalize(y, x, res []float32, mean, inv, g, b, hi float32, mode int) {
	normalizePlanes(y, x, res, onePlane(len(x)), mean, inv, g, b, hi, mode)
}

func gradSums(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, mean, inv, g, b, hi float32, mode int) {
	gradSumsPlanes(sumDy, sumDyXhat, dy, x, onePlane(len(dy)), mean, inv, g, b, hi, mode)
}

func gradInput(dx, dy, x []float32, mean, inv, g, b, scale, mDy, mDyXhat, hi float32, mode int) {
	gradInputPlanes(dx, dy, x, onePlane(len(dy)), mean, inv, g, b, scale, mDy, mDyXhat, hi, mode)
}
