//go:build amd64

package tensor

// CPUID-based feature detection for the kernels in simd_amd64.s.
// AVX2 requires CPU support (leaf 7 EBX bit 5), AVX+OSXSAVE (leaf 1 ECX
// bits 28/27), FMA (leaf 1 ECX bit 12: axpy and the span kernels fuse every
// multiply-add, so no AVX2 path runs without it), and the OS saving
// XMM+YMM state (XCR0 bits 1 and 2).
// AVX-512 (the span kernel convTileAVX512, the plane kernels'
// *PlanesAVX512 routines and the staging routine lowerPlanesAVX512)
// further requires AVX512F (leaf 7 EBX bit 16), AVX512VL (bit 31: a masked
// YMM store), BMI2 (bit 8: BZHI builds the masks) and the OS saving the
// opmask, ZMM_Hi256 and Hi16_ZMM state (XCR0 bits 5, 6 and 7).

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func axpyAVX2(a float32, x, y []float32)

//go:noescape
func dotAVX2(x, y []float32) float32

//go:noescape
func convSpan4AVX2(y []float32, yStride int, x, w []float32, wStride int, off []int32, npix int)

//go:noescape
func convSpan1AVX2(y, x, w []float32, off []int32, npix int)

//go:noescape
func convTileAVX512(y []float32, yStride int, x, w []float32, wStride int, off []int32, tile, npix, nspan, xStep int)

// cpuidFMA is the FMA bit of CPUID leaf 1's ECX.
const cpuidFMA = 1 << 12

var hasAVX2 = func() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 || c1&cpuidFMA == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b7&avx2 != 0
}()

var hasAVX512 = hasAVX2 && func() bool {
	_, b7, _, _ := cpuid(7, 0)
	const avx512 = 1<<16 | 1<<31 | 1<<8 // AVX512F, AVX512VL, BMI2
	if b7&avx512 != avx512 {
		return false
	}
	const state = 0xE6 // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	xcr0, _ := xgetbv()
	return xcr0&state == state
}()

// SpanKernel names the vector kernels this process dispatches to —
// "avx512", "avx2" or "generic" — for the conv span kernel and the
// elementwise plane kernels alike: both are chosen by the same CPUID
// flags. On "avx512" the leftover channels of a conv tile and planeSum
// still run their AVX2 routines.
func SpanKernel() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasAVX2:
		return "avx2"
	}
	return "generic"
}

// convSpan computes noc output channels × nspan spans of npix pixels (see
// convSpanGeneric for the arithmetic, ConvPlan.Run for the operands). The
// vector routines fuse each multiply-add, as the generic kernel's fma32
// does, and are bit-identical to it; they check no lengths, so every
// extent they may touch is checked here, x's from the largest offset its
// table admits.
func convSpan(y []float32, yStride int, x, w []float32, wStride int, o offsets, noc, npix, nspan, xStep int) {
	if noc <= 0 || npix <= 0 || nspan <= 0 || len(o.off) == 0 {
		return
	}
	checkRows(len(y), yStride, noc, nspan*npix)
	checkRows(len(w), wStride, noc, len(o.off))
	checkRows(len(x), xStep, nspan, o.max+npix)
	switch {
	case hasAVX512:
		convSpanAVX512(y, yStride, x, w, wStride, o.off, noc, npix, nspan, xStep)
	case hasAVX2:
		convSpanAVX2(y, yStride, x, w, wStride, o.off, noc, npix, nspan, xStep)
	default:
		convSpanGeneric(y, yStride, x, w, wStride, o.off, noc, npix, nspan, xStep)
	}
}

// convSpanAVX2 runs the AVX2 routines one span at a time: four channels
// per call, then one.
func convSpanAVX2(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
	for k := 0; k < nspan; k++ {
		yk, xk := y[k*npix:], x[k*xStep:]
		j := 0
		for ; j+4 <= noc; j += 4 {
			convSpan4AVX2(yk[j*yStride:], yStride, xk, w[j*wStride:], wStride, off, npix)
		}
		for ; j < noc; j++ {
			convSpan1AVX2(yk[j*yStride:], xk, w[j*wStride:], off, npix)
		}
	}
}

// convSpanAVX512 runs every span of eight channels in one AVX-512 call, a
// remainder of four to seven in one call of the four-channel body, and
// leaves fewer than four channels to the AVX2 routines.
func convSpanAVX512(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
	j := 0
	for ; j+8 <= noc; j += 8 {
		convTileAVX512(y[j*yStride:], yStride, x, w[j*wStride:], wStride, off, 8, npix, nspan, xStep)
	}
	if j+4 <= noc {
		convTileAVX512(y[j*yStride:], yStride, x, w[j*wStride:], wStride, off, 4, npix, nspan, xStep)
		j += 4
	}
	if j < noc {
		convSpanAVX2(y[j*yStride:], yStride, x, w[j*wStride:], wStride, off, noc-j, npix, nspan, xStep)
	}
}

//go:noescape
func lowerPlanesAVX512(dst []float32, dstPlane int, src []float32, srcPlane, planes, head, rows, cols, gap, tail, srcRow, step int)

//go:noescape
func lowerPlanesAVX2(dst []float32, dstPlane int, src []float32, srcPlane, planes, head, rows, cols, gap, tail, srcRow, step int)

//go:noescape
func interleaveRowsAVX2(dst []float32, dstStride, dstPlane int, a []float32, aStride int, b []float32, bStride, rows, planes, n int)

// lowerPlanes fills planes planes of dst, plane k at k·dstPlane, with the
// block l lowers from src's plane k at k·srcPlane (see lowerPlanesGeneric):
// one call for a whole stack of channels. The vector routines take steps 1
// and 2 and check no lengths, so the extent of each operand is checked
// here.
func lowerPlanes(dst []float32, dstPlane int, src []float32, srcPlane, planes int, l lowering) {
	if planes <= 0 {
		return
	}
	checkRows(len(dst), dstPlane, planes, l.dstLen())
	if l.rows > 0 {
		checkRows(len(src)-l.at, srcPlane, planes, l.srcLen())
	}
	switch {
	case hasAVX512 && l.step <= 2:
		lowerPlanesAVX512(dst, dstPlane, src[l.at:], srcPlane, planes, l.head, l.rows, l.cols, l.gap, l.tail, l.srcRow, l.step)
	case hasAVX2 && l.step <= 2:
		lowerPlanesAVX2(dst, dstPlane, src[l.at:], srcPlane, planes, l.head, l.rows, l.cols, l.gap, l.tail, l.srcRow, l.step)
	default:
		lowerPlanesGeneric(dst, dstPlane, src, srcPlane, planes, l)
	}
}

// interleaveRows fills rows rows of n elements in each of planes planes of
// dst from a and b alternately (see interleaveRowsGeneric). The extents
// are checked here, as for lowerPlanes.
func interleaveRows(dst []float32, dstStride, dstPlane int, a []float32, aStride int, b []float32, bStride, rows, planes, n int) {
	if rows <= 0 || planes <= 0 || n <= 0 {
		return
	}
	checkRows(len(dst), dstPlane, planes, (rows-1)*dstStride+n)
	checkRows(len(a), aStride, planes*rows, (n+1)/2)
	if len(b) > 0 && n > 1 {
		checkRows(len(b), bStride, planes*rows, n/2)
	}
	if hasAVX2 {
		if len(b) == 0 {
			b = a[:0] // never read, but an address inside a mapped slice
		}
		interleaveRowsAVX2(dst, dstStride, dstPlane, a, aStride, b, bStride, rows, planes, n)
		return
	}
	interleaveRowsGeneric(dst, dstStride, dstPlane, a, aStride, b, bStride, rows, planes, n)
}

// axpy computes y[i] = fma(a, x[i], y[i]) over len(x) elements, rounded
// once per element: the AVX2 path's fused multiply-add and the scalar
// fallback's fma32 give the same bits.
func axpy(a float32, x, y []float32) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	if hasAVX2 {
		axpyAVX2(a, x, y)
		return
	}
	axpyGeneric(a, x, y)
}

// dot returns sum_i x[i]*y[i] over len(x) elements. The AVX2 path reduces
// in a fixed lane order, deterministic for any worker count.
func dot(x, y []float32) float32 {
	if len(x) == 0 {
		return 0
	}
	_ = y[len(x)-1]
	if hasAVX2 {
		return dotAVX2(x, y)
	}
	return dotGeneric(x, y)
}

// The elementwise plane kernels (elementwise.go). Each routine takes a
// channel's planes in one call. An AVX-512 routine takes any plane length,
// the remainder of each plane under a mask. An AVX2 routine takes planes
// of a whole number of vectors — StatLanes elements for the reductions, 8
// for the maps — so a channel whose planes are not goes to the generic
// twins, bit-identical by construction. planeSum has no AVX-512 routine:
// its lanes are chains of float64 additions, which run no faster at 16
// lanes than at 8 (slower on a core whose 256-bit adder is the quicker
// one). Either routine reads an optional operand (res, or the gradient's
// x) only under the mode bits that need it; an AVX-512 one is handed
// another operand of the call in place of an absent one, so every address
// it forms lies inside a checked extent.

//go:noescape
func planeSumAVX2(acc *[StatLanes]float64, x []float32, plen, n, stride int)

//go:noescape
func planeSumSqDevAVX2(acc *[StatLanes]float64, x []float32, plen, n, stride int, mean float32)

//go:noescape
func normalizeAVX2(y, x, res []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)

//go:noescape
func gradSumsAVX2(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)

//go:noescape
func gradInputAVX2(dx, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, scale, mDy, mDyXhat, hi float32, mode int)

//go:noescape
func sumSqDevPlanesAVX512(acc *[StatLanes]float64, x []float32, plen, n, stride int, mean float32)

//go:noescape
func normalizePlanesAVX512(y, x, res []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)

//go:noescape
func gradSumsPlanesAVX512(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, hi float32, mode int)

//go:noescape
func gradInputPlanesAVX512(dx, dy, x []float32, plen, n, stride int, mean, inv, gamma, beta, scale, mDy, mDyXhat, hi float32, mode int)

// Each dispatcher below checks the extents, then makes one call for the
// channel: the AVX-512 routine, or the AVX2 one when every plane is whole
// vectors, or else the generic twins, one call per plane.

func sumPlanes(acc *[StatLanes]float64, x []float32, p Planes) {
	if p.empty() {
		return
	}
	p.check(len(x))
	if hasAVX2 && p.Len%StatLanes == 0 {
		planeSumAVX2(acc, x, p.Len, p.N, p.Stride)
		return
	}
	sumPlanesGeneric(acc, x, p)
}

func sumSqDevPlanes(acc *[StatLanes]float64, x []float32, p Planes, mean float32) {
	if p.empty() {
		return
	}
	p.check(len(x))
	switch {
	case hasAVX512:
		sumSqDevPlanesAVX512(acc, x, p.Len, p.N, p.Stride, mean)
		return
	case hasAVX2 && p.Len%StatLanes == 0:
		planeSumSqDevAVX2(acc, x, p.Len, p.N, p.Stride, mean)
		return
	}
	sumSqDevPlanesGeneric(acc, x, p, mean)
}

func normalizePlanes(y, x, res []float32, p Planes, mean, inv, g, b, hi float32, mode int) {
	if p.empty() {
		return
	}
	p.check(len(y))
	p.check(len(x))
	if mode&opResidual != 0 {
		p.check(len(res))
	}
	switch {
	case hasAVX512:
		if mode&opResidual == 0 {
			res = x
		}
		normalizePlanesAVX512(y, x, res, p.Len, p.N, p.Stride, mean, inv, g, b, hi, mode)
		return
	case hasAVX2 && p.Len%8 == 0:
		normalizeAVX2(y, x, res, p.Len, p.N, p.Stride, mean, inv, g, b, hi, mode)
		return
	}
	normalizePlanesGeneric(y, x, res, p, mean, inv, g, b, hi, mode)
}

func gradSumsPlanes(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, p Planes, mean, inv, g, b, hi float32, mode int) {
	if p.empty() {
		return
	}
	p.check(len(dy))
	p.check(len(x))
	switch {
	case hasAVX512:
		gradSumsPlanesAVX512(sumDy, sumDyXhat, dy, x, p.Len, p.N, p.Stride, mean, inv, g, b, hi, mode)
		return
	case hasAVX2 && p.Len%StatLanes == 0:
		gradSumsAVX2(sumDy, sumDyXhat, dy, x, p.Len, p.N, p.Stride, mean, inv, g, b, hi, mode)
		return
	}
	gradSumsPlanesGeneric(sumDy, sumDyXhat, dy, x, p, mean, inv, g, b, hi, mode)
}

func gradInputPlanes(dx, dy, x []float32, p Planes, mean, inv, g, b, scale, mDy, mDyXhat, hi float32, mode int) {
	if p.empty() {
		return
	}
	p.check(len(dx))
	p.check(len(dy))
	readsX := mode&(opRect|opVary) != 0
	if readsX {
		p.check(len(x))
	}
	switch {
	case hasAVX512:
		if !readsX {
			x = dy
		}
		gradInputPlanesAVX512(dx, dy, x, p.Len, p.N, p.Stride, mean, inv, g, b, scale, mDy, mDyXhat, hi, mode)
		return
	case hasAVX2 && p.Len%8 == 0:
		gradInputAVX2(dx, dy, x, p.Len, p.N, p.Stride, mean, inv, g, b, scale, mDy, mDyXhat, hi, mode)
		return
	}
	gradInputPlanesGeneric(dx, dy, x, p, mean, inv, g, b, scale, mDy, mDyXhat, hi, mode)
}
