package tensor

// clipX returns the [lo, hi) range of output columns whose sampled input
// column ox*stride+off lands inside [0, w); columns outside the range hit
// padding.
func clipX(wout, stride, off, w int) (lo, hi int) {
	lo = 0
	if off < 0 {
		lo = (-off + stride - 1) / stride
		if lo > wout {
			lo = wout
		}
	}
	hi = wout
	if maxIx := w - 1 - off; maxIx < 0 {
		hi = 0
	} else if m := maxIx/stride + 1; m < wout {
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
// outside the h×w plane read as zero: a zeroed prefix and suffix around a
// contiguous copy (stride 1) or a strided gather.
func lowerRows(dst []float32, wout int, plane []float32, iy0, off, stride, h, w int) {
	lo, hi := clipX(wout, stride, off, w)
	for iy := iy0; len(dst) >= wout; iy, dst = iy+stride, dst[wout:] {
		seg := dst[:wout]
		if iy < 0 || iy >= h || lo == hi {
			// lo == hi: every column hits padding (kernel wider than the
			// padded image), and the source index could point outside the
			// plane.
			clear(seg)
			continue
		}
		clear(seg[:lo])
		clear(seg[hi:])
		seg, src := seg[lo:hi], plane[iy*w+off+lo*stride:]
		if stride == 1 {
			copy(seg, src)
			continue
		}
		j := 0
		if stride == 2 {
			j = deinterleave(seg, src)
		}
		for ; j < len(seg); j++ {
			seg[j] = src[j*stride]
		}
	}
}
