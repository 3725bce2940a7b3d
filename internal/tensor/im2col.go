package tensor

// clip returns the [lo, hi) range of the n outputs i whose sampled input
// i*stride+off lands inside [0, size); outputs outside the range hit
// padding.
func clip(n, stride, off, size int) (lo, hi int) {
	lo = 0
	if off < 0 {
		lo = (-off + stride - 1) / stride
		if lo > n {
			lo = n
		}
	}
	hi = n
	if maxIx := size - 1 - off; maxIx < 0 {
		hi = 0
	} else if m := maxIx/stride + 1; m < n {
		hi = m
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Im2Col lowers one image's patch windows into a column matrix for
// convolution-as-matmul, the forward's oracle. Input x is a single image
// [C,H,W] given as a raw slice; the result written into dst is [C*K*K,
// Hout*Wout] row-major, row r being (channel, ky, kx) = (r/(K*K),
// (r%(K*K))/K, r%K). dst must be pre-sized; entries outside the padded image
// are zeroed. A geometry with no output pixel panics, as NewConvPlan does.
func Im2Col(dst, x []float32, c, h, w, k, stride, pad int) (hout, wout int) {
	s := ConvShape{InC: c, OutC: c, H: h, W: w, K: k, Stride: stride, Pad: pad, Groups: 1}
	if !s.valid() {
		panic("tensor: Im2Col geometry invalid")
	}
	hout, wout = s.OutH(), s.OutW()
	cols, kk := hout*wout, k*k
	if len(dst) < c*kk*cols {
		panic("tensor: Im2Col dst too short")
	}
	for tap := 0; tap < kk; tap++ {
		lowerPlanes(dst[tap*cols:], kk*cols, x, h*w, c, newLowering(hout, wout, tap/k-pad, tap%k-pad, stride, h, w))
	}
	return hout, wout
}

// lowering is how lowerPlanes fills one plane of its destination: a block
// of n rows of wout outputs, output (i, o) the input at row iy0+i·stride,
// column ix0+o·stride of an h×w plane, zero outside it. Laid end to end,
// the block is head zeros, then rows runs of cols input values, each
// followed by gap zeros — the last by tail zeros instead. Run i reads the
// plane from at+i·srcRow, every step-th value; with no run (the window
// misses the plane) the block is all head.
type lowering struct {
	head, rows, cols, gap, tail int
	at, srcRow, step            int
}

// newLowering clips the block once on each axis (see lowering).
func newLowering(n, wout, iy0, ix0, stride, h, w int) lowering {
	l := lowering{head: n * wout, srcRow: stride * w, step: stride}
	r0, r1 := clip(n, stride, iy0, h)
	c0, c1 := clip(wout, stride, ix0, w)
	if r0 == r1 || c0 == c1 {
		return l
	}
	l.head, l.rows, l.cols = r0*wout+c0, r1-r0, c1-c0
	l.gap, l.tail = wout-l.cols, (n-r1)*wout+wout-c1
	l.at = (iy0+r0*stride)*w + ix0 + c0*stride
	return l
}

// dstLen is the length of the block in one destination plane.
func (l lowering) dstLen() int {
	if l.rows == 0 {
		return l.head
	}
	return l.head + l.rows*l.cols + (l.rows-1)*l.gap + l.tail
}

// srcLen is the extent the runs read in one source plane, from at.
func (l lowering) srcLen() int {
	if l.rows == 0 {
		return 0
	}
	return (l.rows-1)*l.srcRow + (l.cols-1)*l.step + 1
}
