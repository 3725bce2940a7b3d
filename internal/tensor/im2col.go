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
	for r := 0; r < c*kk; r++ {
		ch, ky, kx := r/kk, r%kk/k, r%k
		lowerRows(dst[r*cols:(r+1)*cols], wout, x[ch*h*w:(ch+1)*h*w], ky-pad, kx-pad, stride, h, w)
	}
	return hout, wout
}

// lowerRows fills dst, a block of rows wout long, with row i holding
// dst[i][ox] = plane[iy0+i*stride][ox*stride+off] for every ox, positions
// outside the h×w plane read as zero. The block is clipped once on each
// axis: if any of it is padding the whole block is cleared, and then the
// rectangle inside the plane moves in one gatherRows call — a copy at
// stride 1, a strided gather above.
func lowerRows(dst []float32, wout int, plane []float32, iy0, off, stride, h, w int) {
	n := len(dst) / wout
	r0, r1 := clip(n, stride, iy0, h)
	c0, c1 := clip(wout, stride, off, w)
	if r0 > 0 || r1 < n || c0 > 0 || c1 < wout {
		clear(dst[:n*wout])
	}
	if r0 == r1 || c0 == c1 {
		// Every row or every column hits padding (kernel wider than the
		// padded image), and the source index could point outside the
		// plane.
		return
	}
	gatherRows(dst[r0*wout+c0:], wout, plane[(iy0+r0*stride)*w+off+c0*stride:], stride*w, r1-r0, c1-c0, stride)
}
