package tensor

import "math"

// Scalar reference kernels, each bit-identical to its vector routine:
// axpyGeneric performs one fused multiply-add per element, rounded once,
// and dotGeneric reduces in dotAVX2's lane order.

// fma32 returns a·b+c rounded once to float32: the bits of one
// VFMADD231SS on finite operands, and its Inf or NaN otherwise. It is the
// arithmetic of axpy and of the conv span kernels off the vector paths.
//
// The float64 product of two float32 values is exact, so s = p+c is the
// exact sum rounded once, to float64. Rounding s once more, to float32, is
// wrong only where s lands on a float32 tie that the exact sum is not on
// (float32(math.FMA(a, b, c)) has this double-rounding fault); tie32
// picks those out, with the sums below float32's normal range, and
// roundOdd resolves them. A compiler that fuses p+c with the product
// computes the same s, since the rounding it skips is exact.
func fma32(a, b, c float32) float32 {
	p := float64(a) * float64(b)
	s := p + float64(c)
	if tie32(s) {
		s = roundOdd(p, float64(c), s)
	}
	return float32(s)
}

// axpyGeneric sets y[i] = fma32(a, x[i], y[i]). fma32's common case is
// written out in the loop, and only a tie calls it: the compiler inlines
// no function that makes a call, and a call per element would cost more
// than the element.
func axpyGeneric(a float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, xv := range x {
		if s := float64(a)*float64(xv) + float64(y[i]); !tie32(s) {
			y[i] = float32(s)
		} else {
			y[i] = fma32(a, xv, y[i])
		}
	}
}

// tie32 reports whether rounding the float64 s to float32 may round twice
// wrongly: s is a float32 tie — the midpoint of two neighbours, bit 28 of
// its mantissa set and the bits below clear — or a nonzero value below
// float32's normal range, where the ties sit at coarser bits. An Inf or a
// NaN made from float32 operands is neither. It reads s as two 32-bit
// words, so a 386 build tests it without 64-bit integer arithmetic.
func tie32(s float64) bool {
	bits := math.Float64bits(s)
	lo, hi := uint32(bits), uint32(bits>>32)
	return lo&(1<<29-1) == 1<<28 || hi&0x7ff00000 < 897<<20 && s != 0
}

// roundOdd rounds the exact sum p+c to odd, given s, its float64 rounding
// to nearest: s itself when the sum is exact, else whichever float64
// neighbour of the sum has an odd last bit. Rounding that to float32, 24
// bits against 53, is the sum correctly rounded (Boldo and Melquiond,
// "Emulation of FMA and correctly rounded sums: proved algorithms using
// rounding to odd", IEEE Trans. Computers 57(4), 2008). e is the rounding
// error of s, exact by Knuth's TwoSum; s is finite (see tie32).
func roundOdd(p, c, s float64) float64 {
	pp := s - c
	e := (p - pp) + (c - (s - pp))
	bits := math.Float64bits(s)
	if e == 0 || bits&1 != 0 {
		return s
	}
	if (e > 0) == (s > 0) {
		return math.Float64frombits(bits + 1)
	}
	return math.Float64frombits(bits - 1)
}

// dotGeneric is dotAVX2's twin: four 8-lane accumulators over 32-element
// blocks, each 8-element block after them into accumulator 0, the
// accumulators summed as (0+1)+(2+3), the high four lanes added onto the
// low four, those summed as (l0+l1)+(l2+l3), then the scalar tail left to
// right. Every product is rounded on its own (float32(...)), as VMULPS
// rounds it, so a compiler that fuses x*y+z cannot change a bit.
func dotGeneric(x, y []float32) float32 {
	var acc [4][8]float32
	n, i := len(x), 0
	for ; i+32 <= n; i += 32 {
		xs, ys := x[i:i+32], y[i:i+32]
		for a := range acc {
			for l := range acc[a] {
				acc[a][l] += float32(xs[8*a+l] * ys[8*a+l])
			}
		}
	}
	for ; i+8 <= n; i += 8 {
		xs, ys := x[i:i+8], y[i:i+8]
		for l := range acc[0] {
			acc[0][l] += float32(xs[l] * ys[l])
		}
	}
	var v [8]float32
	for l := range v {
		v[l] = (acc[0][l] + acc[1][l]) + (acc[2][l] + acc[3][l])
	}
	s := ((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7]))
	for ; i < n; i++ {
		s += float32(x[i] * y[i])
	}
	return s
}

// Generic twins of the elementwise plane kernels (see elementwise.go). The
// explicit float32(...)/float64(...) conversions around each product round
// it on its own, so a compiler that may fuse x*y+z into one instruction
// (arm64, ppc64, s390x, riscv64, amd64 at GOAMD64=v3) produces the same
// bits as the AVX2 and AVX-512 plane routines, which never fuse.

func planeSumGeneric(acc *[StatLanes]float64, x []float32) {
	for i, v := range x {
		acc[i%StatLanes] += float64(v)
	}
}

func planeSumSqDevGeneric(acc *[StatLanes]float64, x []float32, mean float32) {
	for i, v := range x {
		d := float64(v - mean)
		acc[i%StatLanes] += float64(d * d)
	}
}

// rectify is max(0, v) then the clamp to hi, written as the two selects
// VMAXPS/VMINPS perform: anything not above zero (NaN, −0) becomes +0, and
// hi replaces v only when hi < v (never for the NaN that encodes no cap).
func rectify(v, hi float32) float32 {
	if !(v > 0) {
		return 0
	}
	if hi < v {
		return hi
	}
	return v
}

// passed reports whether the rectifier let v through unchanged, v being
// the value it rectified (affine's z) or its saved output — the same test
// on either.
func passed(v, hi float32) bool { return v > 0 && !(hi <= v) }

// affine is the normalize step's arithmetic, shared by the forward and the
// gate its backward recomputes: x̂ = (v−mean)·inv, then z = γ·x̂ + β, each
// operation rounded on its own.
func affine(v, mean, inv, g, b float32) (xh, z float32) {
	xh = (v - mean) * inv
	return xh, float32(g*xh) + b
}

func normalizeGeneric(y, x, res []float32, mean, inv, g, b, hi float32, mode int) {
	for i, v := range x {
		_, v = affine(v, mean, inv, g, b)
		if mode&opResidual != 0 {
			v += res[i]
		}
		if mode&opRect != 0 {
			v = rectify(v, hi)
		}
		y[i] = v
	}
}

// gradSumsGeneric gates dy, under opRect, by the z that the forward
// rectified, recomputed from x; the sums are always of the affine map.
func gradSumsGeneric(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, mean, inv, g, b, hi float32, mode int) {
	for i, d := range dy {
		xh, z := affine(x[i], mean, inv, g, b)
		if mode&opRect != 0 && !passed(z, hi) {
			d = 0
		}
		sumDy[i%StatLanes] += float64(d)
		sumDyXhat[i%StatLanes] += float64(float64(d) * float64(xh))
	}
}

// gradInputGeneric reads x under opRect or opVary. With opAffine x is the
// layer input and the gate is recomputed from it; without, x is the
// rectifier's saved output and the gate is read from it.
func gradInputGeneric(dx, dy, x []float32, mean, inv, g, b, scale, mDy, mDyXhat, hi float32, mode int) {
	for i, d := range dy {
		var xh, z float32
		if mode&(opRect|opVary) != 0 {
			xh, z = x[i], x[i]
			if mode&opAffine != 0 {
				xh, z = affine(x[i], mean, inv, g, b)
			}
		}
		if mode&opRect != 0 && !passed(z, hi) {
			d = 0
		}
		if mode&opAffine != 0 {
			if mode&opVary != 0 {
				d = (d - mDy) - float32(xh*mDyXhat)
			}
			d = scale * d
		}
		dx[i] = d
	}
}

// The channel loops over the generic twins, one call per plane: all a CPU
// without vector routines runs, and what an AVX2-only one runs on a channel
// whose planes are not whole vectors.

func sumPlanesGeneric(acc *[StatLanes]float64, x []float32, p Planes) {
	for k := 0; k < p.N; k++ {
		planeSumGeneric(acc, p.at(x, k))
	}
}

func sumSqDevPlanesGeneric(acc *[StatLanes]float64, x []float32, p Planes, mean float32) {
	for k := 0; k < p.N; k++ {
		planeSumSqDevGeneric(acc, p.at(x, k), mean)
	}
}

func normalizePlanesGeneric(y, x, res []float32, p Planes, mean, inv, g, b, hi float32, mode int) {
	for k := 0; k < p.N; k++ {
		normalizeGeneric(p.at(y, k), p.at(x, k), p.at(res, k), mean, inv, g, b, hi, mode)
	}
}

func gradSumsPlanesGeneric(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, p Planes, mean, inv, g, b, hi float32, mode int) {
	for k := 0; k < p.N; k++ {
		gradSumsGeneric(sumDy, sumDyXhat, p.at(dy, k), p.at(x, k), mean, inv, g, b, hi, mode)
	}
}

func gradInputPlanesGeneric(dx, dy, x []float32, p Planes, mean, inv, g, b, scale, mDy, mDyXhat, hi float32, mode int) {
	for k := 0; k < p.N; k++ {
		gradInputGeneric(p.at(dx, k), p.at(dy, k), p.at(x, k), mean, inv, g, b, scale, mDy, mDyXhat, hi, mode)
	}
}

// Plane-stack moves (im2col.go, conv_grad.go): one call walks planes
// planes, plane k of an operand starting k times its plane stride past its
// first element. The generic twins of the vector routines are plain
// indexed moves, so every path writes the same bits.

// lowerPlanesGeneric is the reference for the lowering routines: plane k of
// dst, at k·dstPlane, is the block l describes, read from src's plane k at
// k·srcPlane. Every element of the block is written once, the zeros in the
// same pass as the values.
func lowerPlanesGeneric(dst []float32, dstPlane int, src []float32, srcPlane, planes int, l lowering) {
	for k := 0; k < planes; k++ {
		d := dst[k*dstPlane:][:l.dstLen()]
		clear(d[:l.head])
		d = d[l.head:]
		for r := 0; r < l.rows; r++ {
			s := src[k*srcPlane+l.at+r*l.srcRow:]
			for c := range d[:l.cols] {
				d[c] = s[c*l.step]
			}
			z := l.gap
			if r == l.rows-1 {
				z = l.tail
			}
			clear(d[l.cols:][:z])
			d = d[l.cols+z:]
		}
	}
}

// interleaveRowsGeneric fills rows rows of n elements in each of planes
// planes of dst, row r of plane k starting at k·dstPlane + r·dstStride,
// from a and b alternately: its even elements are row k·rows+r of a (at
// (k·rows+r)·aStride) and its odd ones that row of b, or zero when b is
// empty.
func interleaveRowsGeneric(dst []float32, dstStride, dstPlane int, a []float32, aStride int, b []float32, bStride, rows, planes, n int) {
	for k := 0; k < planes; k++ {
		for r := 0; r < rows; r++ {
			d, i := dst[k*dstPlane+r*dstStride:][:n], k*rows+r
			for j := range d {
				switch {
				case j%2 == 0:
					d[j] = a[i*aStride+j/2]
				case len(b) == 0:
					d[j] = 0
				default:
					d[j] = b[i*bStride+j/2]
				}
			}
		}
	}
}

// scatterRows places rows rows of cols elements of src in each of planes
// planes of dst, step apart: dst[k·dstPlane + r·dstStride + c·step] =
// src[(k·rows+r)·srcStride + c], for the shapes interleaveRows does not
// cover; it has no vector twin.
func scatterRows(dst []float32, dstStride, dstPlane int, src []float32, srcStride, rows, planes, cols, step int) {
	for k := 0; k < planes; k++ {
		for r := 0; r < rows; r++ {
			for c, v := range src[(k*rows+r)*srcStride:][:cols] {
				dst[k*dstPlane+r*dstStride+c*step] = v
			}
		}
	}
}
