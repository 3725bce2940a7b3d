package tensor

import (
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/parallel"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range []int{1, 3, 7, 8, 9, 16, 17} {
		h, w := 5, 6
		src := make([]float32, c*h*w)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		// A dirty buffer stands in for a recycled scratch allocation:
		// PackImage must fully define every element it owns.
		packed := make([]float32, PackedImageLen(c, h, w, 0))
		for i := range packed {
			packed[i] = 999
		}
		PackImage(packed, src, c, h, w, 0)
		got := make([]float32, c*h*w)
		UnpackImage(got, packed, c, h, w)
		if !bitsEqual(got, src) {
			t.Errorf("c=%d: pack/unpack round trip altered data", c)
		}
	}
}

func TestPackImagePaddingAndTailLanesZeroed(t *testing.T) {
	c, h, w, pad := 3, 4, 5, 2
	src := make([]float32, c*h*w)
	for i := range src {
		src[i] = 1
	}
	packed := make([]float32, PackedImageLen(c, h, w, pad))
	for i := range packed {
		packed[i] = 999 // dirty, as from the scratch pool
	}
	PackImage(packed, src, c, h, w, pad)
	hp, wp := h+2*pad, w+2*pad
	for y := 0; y < hp; y++ {
		for x := 0; x < wp; x++ {
			for l := 0; l < packLanes; l++ {
				v := packed[(y*wp+x)*packLanes+l]
				interior := y >= pad && y < pad+h && x >= pad && x < pad+w
				if interior && l < c {
					if v != 1 {
						t.Fatalf("interior (%d,%d,%d) = %v, want 1", y, x, l, v)
					}
				} else if v != 0 {
					t.Fatalf("border/tail (%d,%d,%d) = %v, want 0", y, x, l, v)
				}
			}
		}
	}
}

// convIm2ColRef computes one image's conv via the im2col + matmul path —
// the reference the packed direct kernel must reproduce bit for bit.
func convIm2ColRef(y, x, w []float32, inC, h, wd, outC, k, stride, pad int) (hout, wout int) {
	hout = (h+2*pad-k)/stride + 1
	wout = (wd+2*pad-k)/stride + 1
	rows := inC * k * k
	cols := hout * wout
	buf := make([]float32, rows*cols)
	Im2Col(buf, x, inC, h, wd, k, stride, pad)
	MatMulInto(y, w, buf, outC, rows, cols, false)
	return hout, wout
}

// convPackedRun computes the same conv through the packed path.
func convPackedRun(y, x, w []float32, inC, h, wd, outC, k, stride, pad int) {
	hout := (h+2*pad-k)/stride + 1
	wout := (wd+2*pad-k)/stride + 1
	hp, wp := h+2*pad, wd+2*pad
	pw := PackConvWeights(w, outC, inC, k)
	xoff := ConvOffsets(inC, hp, wp, k)
	xp := make([]float32, PackedImageLen(inC, h, wd, pad))
	yp := make([]float32, packedBlocks(outC)*hout*wout*packLanes)
	PackImage(xp, x, inC, h, wd, pad)
	ConvPackedForward(yp, xp, pw, xoff, hout, wout, hp, wp, stride)
	UnpackImage(y, yp, outC, hout, wout)
}

var packedParityCases = []struct{ inC, h, w, outC, k, stride, pad int }{
	{3, 8, 8, 16, 3, 1, 1},   // first-layer shape: tail input lanes
	{8, 6, 6, 8, 3, 1, 1},    // exact blocks
	{16, 9, 7, 24, 3, 1, 1},  // rectangular, wout%4 != 0
	{17, 5, 5, 9, 3, 1, 1},   // tails on both sides
	{4, 7, 7, 12, 1, 1, 0},   // 1x1 conv
	{8, 8, 8, 8, 5, 1, 2},    // larger kernel
	{2, 3, 3, 4, 3, 1, 1},    // tiny image, wout < 4 (pure tail pixels)
	{8, 1, 9, 8, 1, 1, 0},    // single-row output
	{6, 10, 10, 10, 3, 1, 0}, // no padding
	{8, 6, 6, 8, 3, 2, 1},    // stride 2 (kernel supports it even if nn gates on 1)
}

// TestConvPackedMatchesIm2ColBitwise pins the dispatch contract: the packed
// direct path must reproduce the im2col+matmul path bit for bit, including
// shapes with tail channel lanes, tail pixels, and exact zero weights.
func TestConvPackedMatchesIm2ColBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, tc := range packedParityCases {
		x := make([]float32, tc.inC*tc.h*tc.w)
		w := make([]float32, tc.outC*tc.inC*tc.k*tc.k)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		// Exact zeros exercise the matmul's zero-weight skip, which the
		// packed kernel does not have; adding the skipped ±0 products is
		// a bitwise no-op (see conv_direct.go).
		for i := 0; i < len(w); i += 7 {
			w[i] = 0
		}
		hout := (tc.h+2*tc.pad-tc.k)/tc.stride + 1
		wout := (tc.w+2*tc.pad-tc.k)/tc.stride + 1
		want := make([]float32, tc.outC*hout*wout)
		got := make([]float32, tc.outC*hout*wout)
		convIm2ColRef(want, x, w, tc.inC, tc.h, tc.w, tc.outC, tc.k, tc.stride, tc.pad)
		convPackedRun(got, x, w, tc.inC, tc.h, tc.w, tc.outC, tc.k, tc.stride, tc.pad)
		if !bitsEqual(got, want) {
			t.Errorf("packed conv differs from im2col for %+v", tc)
		}
	}
}

// TestConvPackedGenericMatchesSIMD pins the portable span kernel against
// whatever vector kernel the build dispatches to (AVX2 mul+add must be
// bit-identical on every CPU).
func TestConvPackedGenericMatchesSIMD(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, npix := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		rows, pixStride := 72, packLanes
		xlen := (npix-1)*pixStride + 10*packLanes
		x := make([]float32, xlen)
		w := make([]float32, rows*packLanes)
		xoff := make([]int32, rows)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		for i := range xoff {
			xoff[i] = int32(rng.Intn(9*packLanes + packLanes))
		}
		got := make([]float32, npix*packLanes)
		want := make([]float32, npix*packLanes)
		convPackedSpan(got, x, w, xoff, rows, pixStride, npix)
		convPackedSpanGeneric(want, x, w, xoff, rows, pixStride, npix)
		if !bitsEqual(got, want) {
			t.Errorf("npix=%d: convPackedSpan differs from generic kernel", npix)
		}
	}
}

// TestConvPackedDeterministicAcrossWorkerCounts: the packed forward must
// be bit-identical whether the pool runs one worker or eight.
func TestConvPackedDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float32 {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		rng := rand.New(rand.NewSource(53))
		inC, h, w, outC, k, pad := 16, 12, 12, 32, 3, 1
		x := make([]float32, inC*h*w)
		wt := make([]float32, outC*inC*k*k)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range wt {
			wt[i] = float32(rng.NormFloat64())
		}
		y := make([]float32, outC*h*w)
		convPackedRun(y, x, wt, inC, h, w, outC, k, 1, pad)
		return y
	}
	if !bitsEqual(run(1), run(8)) {
		t.Error("packed conv differs between 1 and 8 workers")
	}
}

// TestIm2ColRowsMatchFullLowering: strips of the lowering must equal the
// corresponding rows of the full matrix bit for bit (the strip-mined
// backward depends on this).
func TestIm2ColRowsMatchFullLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c, h, w, k, stride, pad := 3, 7, 6, 3, 2, 1
	hout := (h+2*pad-k)/stride + 1
	wout := (w+2*pad-k)/stride + 1
	cols := hout * wout
	rows := c * k * k
	x := make([]float32, c*h*w)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	full := make([]float32, rows*cols)
	Im2Col(full, x, c, h, w, k, stride, pad)
	for _, strip := range [][2]int{{0, 5}, {5, 11}, {11, rows}, {0, rows}} {
		r0, r1 := strip[0], strip[1]
		got := make([]float32, (r1-r0)*cols)
		Im2ColRows(got, x, c, h, w, k, stride, pad, r0, r1)
		if !bitsEqual(got, full[r0*cols:r1*cols]) {
			t.Errorf("Im2ColRows(%d,%d) differs from full lowering", r0, r1)
		}
	}

	// Col2Im scattered as ascending strips must equal one full scatter.
	colsIn := make([]float32, rows*cols)
	for i := range colsIn {
		colsIn[i] = float32(rng.NormFloat64())
	}
	want := make([]float32, c*h*w)
	Col2Im(want, colsIn, c, h, w, k, stride, pad)
	got := make([]float32, c*h*w)
	for r0 := 0; r0 < rows; r0 += 4 {
		r1 := r0 + 4
		if r1 > rows {
			r1 = rows
		}
		Col2ImRows(got, colsIn[r0*cols:r1*cols], c, h, w, k, stride, pad, r0, r1)
	}
	if !bitsEqual(got, want) {
		t.Error("strip-wise Col2ImRows differs from full Col2Im")
	}
}

// TestScratchReuseNoStaleDataAcrossShapes poisons the scratch pool's size
// classes with NaN and then runs a conv whose buffers come from those
// classes: any element the pack/compute path fails to overwrite or clear
// would surface as NaN (NaN propagates through every accumulation). The
// pool hands recycled buffers across differently-shaped calls, so this
// pins the "callers must fully define pooled buffers" contract.
func TestScratchReuseNoStaleDataAcrossShapes(t *testing.T) {
	nan := float32(math.NaN())
	poison := func() {
		for _, n := range []int{256, 1 << 10, 1 << 12, 1 << 14, 1 << 16} {
			buf := GetScratch(n)
			for i := range buf {
				buf[i] = nan
			}
			PutScratch(buf)
		}
	}
	rng := rand.New(rand.NewSource(67))
	// Two deliberately different geometries, run back to back so the
	// second recycles the first's buffers.
	for _, tc := range []struct{ inC, h, w, outC, k, pad int }{
		{16, 12, 12, 16, 3, 1},
		{3, 30, 30, 8, 3, 1},
	} {
		x := make([]float32, tc.inC*tc.h*tc.w)
		w := make([]float32, tc.outC*tc.inC*tc.k*tc.k)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range w {
			w[i] = float32(rng.NormFloat64())
		}
		want := make([]float32, tc.outC*tc.h*tc.w)
		convIm2ColRef(want, x, w, tc.inC, tc.h, tc.w, tc.outC, tc.k, 1, tc.pad)

		poison()
		hout, wout := tc.h, tc.w // stride 1, pad (k-1)/2
		hp, wp := tc.h+2*tc.pad, tc.w+2*tc.pad
		pw := PackConvWeights(w, tc.outC, tc.inC, tc.k)
		xoff := ConvOffsets(tc.inC, hp, wp, tc.k)
		xp := GetScratch(PackedImageLen(tc.inC, tc.h, tc.w, tc.pad))
		yp := GetScratch(PackedImageLen(tc.outC, hout, wout, 0))
		PackImage(xp, x, tc.inC, tc.h, tc.w, tc.pad)
		ConvPackedForward(yp, xp, pw, xoff, hout, wout, hp, wp, 1)
		got := make([]float32, tc.outC*hout*wout)
		UnpackImage(got, yp, tc.outC, hout, wout)
		PutScratch(xp)
		PutScratch(yp)
		if !bitsEqual(got, want) {
			t.Errorf("%+v: pooled-buffer conv differs from fresh-buffer reference", tc)
		}

		// The im2col path shares the same pool; it must be equally immune.
		poison()
		rows := tc.inC * tc.k * tc.k
		cols := hout * wout
		buf := GetScratch(rows * cols)
		Im2Col(buf, x, tc.inC, tc.h, tc.w, tc.k, 1, tc.pad)
		got2 := make([]float32, tc.outC*cols)
		MatMulInto(got2, w, buf, tc.outC, rows, cols, false)
		PutScratch(buf)
		if !bitsEqual(got2, want) {
			t.Errorf("%+v: pooled-buffer im2col conv differs from reference", tc)
		}
	}
}
