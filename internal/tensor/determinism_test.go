package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/parallel"
)

// bitsEqual reports whether two float32 slices are identical bit for bit
// (the package's determinism contract is bitwise, not approximate).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestMatMulBitIdenticalAcrossWorkerCounts pins the determinism contract:
// every matmul variant must produce bit-identical output whether the
// scheduler runs one worker or eight. Sizes are chosen to straddle the
// cache-tile boundaries (mmBlockN, mmBlockK) and the scheduling grain.
func TestMatMulBitIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, k, n := 37, 131, 301
	a := New(m, k)
	b := New(k, n)
	at := New(k, m) // A for the ᵀA variant
	bt := New(n, k) // B for the Bᵀ variant
	for _, x := range []*Tensor{a, b, at, bt} {
		x.Randn(rng, 1)
	}

	type out struct{ mm, ta, tb []float32 }
	run := func(workers int) out {
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		o := out{
			mm: make([]float32, m*n),
			ta: make([]float32, m*n),
			tb: make([]float32, m*n),
		}
		MatMulInto(o.mm, a.Data, b.Data, m, k, n, false)
		MatMulTransAInto(o.ta, at.Data, b.Data, k, m, n, false)
		MatMulTransBInto(o.tb, a.Data, bt.Data, m, k, n, false)
		// A second accumulating pass doubles coverage (exercises the
		// accumulate branches) while keeping the comparison bitwise.
		MatMulInto(o.mm, a.Data, b.Data, m, k, n, true)
		MatMulTransAInto(o.ta, at.Data, b.Data, k, m, n, true)
		MatMulTransBInto(o.tb, a.Data, bt.Data, m, k, n, true)
		return o
	}

	one := run(1)
	eight := run(8)
	if !bitsEqual(one.mm, eight.mm) {
		t.Error("MatMulInto differs between 1 and 8 workers")
	}
	if !bitsEqual(one.ta, eight.ta) {
		t.Error("MatMulTransAInto differs between 1 and 8 workers")
	}
	if !bitsEqual(one.tb, eight.tb) {
		t.Error("MatMulTransBInto differs between 1 and 8 workers")
	}
}

// TestAxpyMatchesGenericBitwise: the vector axpy must agree with the
// scalar fallback on every bit (both are one rounded multiply plus one
// rounded add per element), across lengths that cover every unroll tail.
func TestAxpyMatchesGenericBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 31, 32, 33, 63, 64, 100, 1023} {
		x := make([]float32, n)
		y1 := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y1[i] = float32(rng.NormFloat64())
		}
		y2 := append([]float32(nil), y1...)
		a := float32(rng.NormFloat64())
		axpy(a, x, y1)
		axpyGeneric(a, x, y2)
		if !bitsEqual(y1, y2) {
			t.Fatalf("n=%d: axpy and axpyGeneric disagree", n)
		}
	}
}

// TestDotDeterministicAndAccurate: dot's lane-reduction order differs from
// the scalar left-to-right sum, so it is compared against a float64
// reference within float32 tolerance — but repeated calls must agree
// exactly, as must any worker count (dot has no parallel substructure).
func TestDotDeterministicAndAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 100, 1000} {
		x := make([]float32, n)
		y := make([]float32, n)
		ref := 0.0
		for i := range x {
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
			ref += float64(x[i]) * float64(y[i])
		}
		got := dot(x, y)
		if again := dot(x, y); math.Float32bits(got) != math.Float32bits(again) {
			t.Fatalf("n=%d: dot not reproducible", n)
		}
		tol := 1e-4 * (1 + math.Abs(ref))
		if math.Abs(float64(got)-ref) > tol {
			t.Fatalf("n=%d: dot=%g, float64 reference=%g", n, got, ref)
		}
	}
}

// im2colRef is the pre-optimization scalar lowering, kept as the reference
// the fast-path implementation must match exactly.
func im2colRef(dst, x []float32, c, h, w, k, stride, pad int) {
	hout := (h+2*pad-k)/stride + 1
	wout := (w+2*pad-k)/stride + 1
	cols := hout * wout
	row := 0
	for ch := 0; ch < c; ch++ {
		plane := x[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				out := dst[row*cols : (row+1)*cols]
				i := 0
				for oy := 0; oy < hout; oy++ {
					iy := oy*stride - pad + ky
					for ox := 0; ox < wout; ox++ {
						ix := ox*stride - pad + kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							out[i] = plane[iy*w+ix]
						} else {
							out[i] = 0
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// TestIm2ColMatchesReferenceAcrossGeometries holds the lowering to the
// scalar reference, and a geometry with no output pixel to a panic: a 2×2
// plane under k = 3 has none, and the lowering used to loop forever on it.
func TestIm2ColMatchesReferenceAcrossGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct{ c, h, w, k, stride, pad int }{
		{1, 5, 5, 3, 1, 1},
		{3, 8, 8, 3, 1, 1},
		{2, 9, 7, 3, 2, 1},
		{2, 8, 8, 1, 1, 0},
		{1, 6, 6, 5, 1, 2},
		{2, 12, 12, 5, 2, 2},
		{1, 4, 4, 3, 1, 0},
		{3, 7, 9, 3, 3, 1},
		// Kernel wider than the padded image width: some (ky,kx) rows are
		// pure padding, which once made the stride-1 fast path slice the
		// plane out of range.
		{1, 2, 2, 7, 1, 3},
		// Shapes the packed fast path skips, pinning the fallback
		// boundary: K=1 at stride 2 (downsampling shortcut convs), K=1
		// with padding (every output ring is pure padding), stride-2 3×3
		// with and without padding, and over-padding (pad > (K-1)/2, so
		// whole kernel rows land outside even the first valid window).
		{3, 8, 8, 1, 2, 0},
		{2, 5, 5, 1, 1, 1},
		{2, 7, 9, 3, 2, 0},
		{4, 6, 6, 3, 2, 2},
		{1, 5, 5, 3, 1, 3},
		{2, 4, 8, 5, 3, 2},
	}
	for _, tc := range cases {
		hout := (tc.h+2*tc.pad-tc.k)/tc.stride + 1
		wout := (tc.w+2*tc.pad-tc.k)/tc.stride + 1
		rows := tc.c * tc.k * tc.k
		x := make([]float32, tc.c*tc.h*tc.w)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, rows*hout*wout)
		want := make([]float32, rows*hout*wout)
		Im2Col(got, x, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad)
		im2colRef(want, x, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad)
		if !bitsEqual(got, want) {
			t.Errorf("Im2Col mismatch for %+v", tc)
		}
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "geometry invalid") {
				t.Errorf("Im2Col of a 2×2 plane under k = 3: recovered %q, want a geometry panic", msg)
			}
		}()
		Im2Col(make([]float32, 9), make([]float32, 4), 1, 2, 2, 3, 1, 0)
	}()
}
