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
// convolution-as-matmul. Input x is a single image [C,H,W] given as a raw
// slice; the result written into dst is [C*K*K, Hout*Wout] row-major.
// dst must be pre-sized; entries outside the padded image are zeroed.
func Im2Col(dst, x []float32, c, h, w, k, stride, pad int) (hout, wout int) {
	return Im2ColRows(dst, x, c, h, w, k, stride, pad, 0, c*k*k)
}

// Im2ColRows lowers only rows [r0, r1) of the column matrix, written
// densely into dst (row r lands at dst[(r-r0)*Hout*Wout:]). Row r
// corresponds to (channel, ky, kx) = (r/(K*K), (r%(K*K))/K, r%K). The
// strip-mined conv backward uses this to stream small row blocks through
// the cache instead of materializing the full lowering; the per-row code
// is shared with Im2Col, so strips are bit-identical to the full matrix.
// Each output row decomposes into a zeroed padding prefix/suffix and an
// in-bounds middle that is a contiguous copy at stride 1 (the common
// case) or a strided gather otherwise (lowerRows).
func Im2ColRows(dst, x []float32, c, h, w, k, stride, pad, r0, r1 int) (hout, wout int) {
	hout = (h+2*pad-k)/stride + 1
	wout = (w+2*pad-k)/stride + 1
	cols := hout * wout
	if len(dst) < (r1-r0)*cols {
		panic("tensor: Im2ColRows dst too short")
	}
	kk := k * k
	for r := r0; r < r1; r++ {
		ch := r / kk
		rem := r % kk
		ky, kx := rem/k, rem%k
		plane := x[ch*h*w : (ch+1)*h*w]
		out := dst[(r-r0)*cols : (r-r0+1)*cols]
		lowerRows(out, wout, plane, ky-pad, kx-pad, stride, h, w)
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

// Col2Im scatters a column matrix back into an image, accumulating
// overlapping contributions. cols is [C*K*K, Hout*Wout]; the result is
// accumulated into dst, a [C,H,W] image slice (caller zeroes it first).
func Col2Im(dst, cols []float32, c, h, w, k, stride, pad int) {
	Col2ImRows(dst, cols, c, h, w, k, stride, pad, 0, c*k*k)
}

// Col2ImRows scatters only rows [r0, r1) of a column matrix, read densely
// from cols (row r at cols[(r-r0)*Hout*Wout:]). Scattering strips in
// ascending row order reproduces the full Col2Im bit for bit: the
// accumulation order per image element is rows ascending, exactly as in
// the scalar formulation. The in-bounds middle of each row is a
// vectorized add at stride 1.
func Col2ImRows(dst, cols []float32, c, h, w, k, stride, pad, r0, r1 int) {
	hout := (h+2*pad-k)/stride + 1
	wout := (w+2*pad-k)/stride + 1
	n := hout * wout
	kk := k * k
	for r := r0; r < r1; r++ {
		ch := r / kk
		rem := r % kk
		ky, kx := rem/k, rem%k
		plane := dst[ch*h*w : (ch+1)*h*w]
		src := cols[(r-r0)*n : (r-r0+1)*n]
		off := kx - pad
		lo, hi := clipX(wout, stride, off, w)
		for oy := 0; oy < hout; oy++ {
			iy := oy*stride - pad + ky
			if iy < 0 || iy >= h || lo == hi {
				continue
			}
			base := iy*w + off
			seg := src[oy*wout:]
			if stride == 1 {
				// plane[base+ox] += seg[ox]: a unit axpy (1*x
				// rounds to x, so this matches the scalar loop
				// bit for bit).
				axpy(1, seg[lo:hi], plane[base+lo:base+hi])
			} else {
				ix := base + lo*stride
				for ox := lo; ox < hi; ox++ {
					plane[ix] += seg[ox]
					ix += stride
				}
			}
		}
	}
}
