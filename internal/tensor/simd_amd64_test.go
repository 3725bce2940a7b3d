package tensor

import (
	"math/rand"
	"testing"

	"edgetta/internal/parallel"
)

// spanRoutines lists the vector span routines, each called per span and
// per tile the way its dispatcher calls it, and the two dispatchers.
func spanRoutines() []spanRoutine {
	return []spanRoutine{
		{"convSpan4AVX2", "AVX2", hasAVX2, convTile,
			func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
				for k := 0; k < nspan; k++ {
					for j := 0; j+convTile <= noc; j += convTile {
						convSpan4AVX2(y[j*yStride+k*npix:], yStride, x[k*xStep:], w[j*wStride:], wStride, off, npix)
					}
				}
			}},
		{"convSpan1AVX2", "AVX2", hasAVX2, 1,
			func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
				for k := 0; k < nspan; k++ {
					for j := 0; j < noc; j++ {
						convSpan1AVX2(y[j*yStride+k*npix:], x[k*xStep:], w[j*wStride:], off, npix)
					}
				}
			}},
		{"convSpan4AVX512", "AVX-512", hasAVX512, convTile,
			func(y []float32, yStride int, x, w []float32, wStride int, off []int32, noc, npix, nspan, xStep int) {
				for j := 0; j+convTile <= noc; j += convTile {
					convSpan4AVX512(y[j*yStride:], yStride, x, w[j*wStride:], wStride, off, npix, nspan, xStep)
				}
			}},
		{"convSpanAVX2", "AVX2", hasAVX2, 1, convSpanAVX2},
		{"convSpanAVX512", "AVX-512", hasAVX512, 1, convSpanAVX512},
	}
}

// TestSpanKernelDispatch logs which span kernel this CPU runs, so a test
// log says which path was tested, and checks the name against the feature
// flags the dispatch reads.
func TestSpanKernelDispatch(t *testing.T) {
	t.Logf("span kernel: %s (AVX2 %v, AVX-512 %v)", SpanKernel(), hasAVX2, hasAVX512)
	want := "generic"
	switch {
	case hasAVX512:
		want = "avx512"
	case hasAVX2:
		want = "avx2"
	}
	if SpanKernel() != want {
		t.Errorf("SpanKernel() = %q, want %q", SpanKernel(), want)
	}
	if hasAVX512 && !hasAVX2 {
		t.Error("AVX-512 dispatch without AVX2, which its leftover channels run on")
	}
	if got := spanRun(8); hasAVX512 != (got == 4) {
		t.Errorf("spanRun(8) = %d with AVX-512 %v", got, hasAVX512)
	}
}

// TestConvParityWithoutAVX512 runs the forward parity test again with the
// AVX-512 kernel off, which is the one-span-per-call layout an AVX2-only
// CPU runs, and holds every forward and input gradient of the adjoint
// test's geometries bit-equal across the two layouts.
func TestConvParityWithoutAVX512(t *testing.T) {
	if !hasAVX512 {
		t.Skip("the CPU lacks AVX-512: every other test already runs the AVX2 layout")
	}
	defer func() { hasAVX512 = true }()
	defer parallel.SetWorkers(0)
	hasAVX512 = false
	t.Run("TestConvPackedMatchesIm2ColBitwise", TestConvPackedMatchesIm2ColBitwise)

	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 5} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, k - 1, k + 1} {
				for _, groups := range []int{1, 3} {
					for _, hw := range parityPlanes {
						s := ConvShape{InC: 3, OutC: 4 * groups, H: hw[0], W: hw[1], K: k, Stride: stride, Pad: pad, Groups: groups}
						if !s.valid() {
							continue
						}
						x, g := randSlice(rng, s.InC*s.H*s.W), randSlice(rng, s.OutC*s.OutH()*s.OutW())
						w := randSlice(rng, s.OutC*s.InC/groups*k*k)
						var y, dx [2][]float32
						for i, on := range []bool{false, true} {
							hasAVX512 = on
							y[i], dx[i] = convDirectRun(t, x, w, s), convGradRun(t, g, w, s)
						}
						if !bitsEqual(y[0], y[1]) || !bitsEqual(dx[0], dx[1]) {
							t.Errorf("%+v: the AVX-512 and AVX2 layouts differ", s)
						}
					}
				}
			}
		}
	}
}
