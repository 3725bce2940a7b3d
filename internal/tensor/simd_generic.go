package tensor

// Scalar reference kernels. axpyGeneric is bit-identical to the AVX2 path
// (both perform one rounded multiply and one rounded add per element);
// dotGeneric accumulates left-to-right, which the vector path does not,
// so dot results are deterministic per build rather than per architecture.

func axpyGeneric(a float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, xv := range x {
		y[i] += a * xv
	}
}

func dotGeneric(x, y []float32) float32 {
	_ = y[len(x)-1]
	s := float32(0)
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// Generic twins of the elementwise plane kernels (see elementwise.go). The
// explicit float32(...)/float64(...) conversions around each product round
// it on its own, so a compiler that may fuse x*y+z into one instruction
// (arm64, ppc64, s390x, riscv64) produces the same bits as the AVX2 and
// AVX-512 routines, which never fuse.

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

// passed reports whether the rectifier let the value behind the saved
// output y through unchanged — the old ReLU mask, read back from y.
func passed(y, hi float32) bool { return y > 0 && !(hi <= y) }

func normalizeGeneric(y, x, res []float32, mean, inv, g, b, hi float32, mode int) {
	for i, v := range x {
		if mode&opAffine != 0 {
			xh := (v - mean) * inv
			v = float32(g*xh) + b
		}
		if mode&opResidual != 0 {
			v += res[i]
		}
		if mode&opRect != 0 {
			v = rectify(v, hi)
		}
		y[i] = v
	}
}

func gradSumsGeneric(sumDy, sumDyXhat *[StatLanes]float64, dy, x, out []float32, mean, inv, hi float32, mode int) {
	for i, d := range dy {
		if mode&opRect != 0 && !passed(out[i], hi) {
			d = 0
		}
		xh := (x[i] - mean) * inv
		sumDy[i%StatLanes] += float64(d)
		sumDyXhat[i%StatLanes] += float64(float64(d) * float64(xh))
	}
}

func gradInputGeneric(dx, dy, x, out []float32, mean, inv, scale, mDy, mDyXhat, hi float32, mode int) {
	for i, d := range dy {
		if mode&opRect != 0 && !passed(out[i], hi) {
			d = 0
		}
		if mode&opAffine != 0 {
			if mode&opVary != 0 {
				xh := (x[i] - mean) * inv
				d = (d - mDy) - float32(xh*mDyXhat)
			}
			d = scale * d
		}
		dx[i] = d
	}
}

// Row-block moves (im2col.go, conv_grad.go): one call moves rows rows, row
// r of an operand starting r·stride elements past its first. The generic
// twins of the AVX2 routines are plain indexed moves, so every path writes
// the same bits.

func gatherRowsGeneric(dst []float32, dstStride int, src []float32, srcStride, rows, cols, step int) {
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstStride:][:cols], src[r*srcStride:]
		if step == 1 {
			copy(d, s[:cols])
			continue
		}
		for c := range d {
			d[c] = s[c*step]
		}
	}
}

func interleaveRowsGeneric(dst []float32, dstStride int, a []float32, aStride int, b []float32, bStride, rows, n int) {
	for r := 0; r < rows; r++ {
		d := dst[r*dstStride:][:n]
		for i := range d {
			switch {
			case i%2 == 0:
				d[i] = a[r*aStride+i/2]
			case len(b) == 0:
				d[i] = 0
			default:
				d[i] = b[r*bStride+i/2]
			}
		}
	}
}

// scatterRows is gatherRows' inverse, dst[r*dstStride+c*step] =
// src[r*srcStride+c], for the shapes interleaveRows does not cover; it has
// no vector twin.
func scatterRows(dst []float32, dstStride int, src []float32, srcStride, rows, cols, step int) {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*srcStride:][:cols] {
			dst[r*dstStride+c*step] = v
		}
	}
}
