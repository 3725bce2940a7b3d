package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndNumel(t *testing.T) {
	x := New(2, 3, 4)
	if x.NDim() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape: %v", x.Shape())
	}
	if x.Numel() != 24 || len(x.Data) != 24 {
		t.Fatalf("bad numel: %d", x.Numel())
	}
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(make([]float32, 5), 2, 3)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	if x.Data[1*3+2] != 7 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	x := New(3)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestSumMeanMaxAbs(t *testing.T) {
	x := FromSlice([]float32{-4, 1, 3}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 0 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
}

func TestArgmaxRows(t *testing.T) {
	x := FromSlice([]float32{0, 5, 2, 9, 1, 3}, 2, 3)
	got := x.ArgmaxRows()
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows = %v", got)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := float64(0)
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	x := New(shape...)
	x.Randn(rng, 1)
	return x
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(17), 1+rng.Intn(17), 1+rng.Intn(17)
		a, b := randTensor(rng, m, k), randTensor(rng, k, n)
		got, want := MatMul(a, b), naiveMatMul(a, b)
		for i := range got.Data {
			if math.Abs(float64(got.Data[i]-want.Data[i])) > 1e-4 {
				t.Fatalf("trial %d: MatMul[%d] = %v, want %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k, m, n := 7, 5, 6
	a, b := randTensor(rng, k, m), randTensor(rng, k, n)
	dst := make([]float32, m*n)
	MatMulTransAInto(dst, a.Data, b.Data, k, m, n, false)
	// Aᵀ·B computed naively.
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := float64(0)
			for p := 0; p < k; p++ {
				s += float64(a.Data[p*m+i]) * float64(b.Data[p*n+j])
			}
			if math.Abs(float64(dst[i*n+j])-s) > 1e-4 {
				t.Fatalf("TransA[%d,%d] = %v, want %v", i, j, dst[i*n+j], s)
			}
		}
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 4, 6, 5
	a, b := randTensor(rng, m, k), randTensor(rng, n, k)
	dst := make([]float32, m*n)
	MatMulTransBInto(dst, a.Data, b.Data, m, k, n, false)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := float64(0)
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[j*k+p])
			}
			if math.Abs(float64(dst[i*n+j])-s) > 1e-4 {
				t.Fatalf("TransB[%d,%d] = %v, want %v", i, j, dst[i*n+j], s)
			}
		}
	}
}

func TestMatMulAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randTensor(rng, 3, 4), randTensor(rng, 4, 2)
	dst := make([]float32, 6)
	MatMulInto(dst, a.Data, b.Data, 3, 4, 2, false)
	once := append([]float32(nil), dst...)
	MatMulInto(dst, a.Data, b.Data, 3, 4, 2, true)
	for i := range dst {
		if math.Abs(float64(dst[i]-2*once[i])) > 1e-4 {
			t.Fatalf("accumulate[%d] = %v, want %v", i, dst[i], 2*once[i])
		}
	}
}

// Property: matmul is linear in its first argument: (A1+A2)·B = A1·B + A2·B.
func TestMatMulLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a1, a2, b := randTensor(r, m, k), randTensor(r, m, k), randTensor(r, k, n)
		sum := a1.Clone()
		AddPlanes(sum.Data, a2.Data, Planes{N: 1, Len: sum.Numel()})
		left := MatMul(sum, b)
		right := MatMul(a1, b)
		AddPlanes(right.Data, MatMul(a2, b).Data, Planes{N: 1, Len: right.Numel()})
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func naiveConvPoint(x []float32, c, h, w int, wt []float32, k, stride, pad, oy, ox int) float32 {
	s := float64(0)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
				if iy < 0 || iy >= h || ix < 0 || ix >= w {
					continue
				}
				s += float64(x[ch*h*w+iy*w+ix]) * float64(wt[ch*k*k+ky*k+kx])
			}
		}
	}
	return float32(s)
}

// Im2Col followed by a weight-row dot product must equal direct convolution.
func TestIm2ColMatchesNaiveConv(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct{ c, h, w, k, stride, pad int }{
		{1, 5, 5, 3, 1, 1},
		{3, 8, 8, 3, 2, 1},
		{2, 7, 6, 1, 1, 0},
		{4, 9, 9, 5, 2, 2},
	} {
		x := randTensor(rng, tc.c, tc.h, tc.w)
		wt := randTensor(rng, tc.c, tc.k, tc.k)
		hout := (tc.h+2*tc.pad-tc.k)/tc.stride + 1
		wout := (tc.w+2*tc.pad-tc.k)/tc.stride + 1
		cols := make([]float32, tc.c*tc.k*tc.k*hout*wout)
		gh, gw := Im2Col(cols, x.Data, tc.c, tc.h, tc.w, tc.k, tc.stride, tc.pad)
		if gh != hout || gw != wout {
			t.Fatalf("Im2Col dims = %d,%d want %d,%d", gh, gw, hout, wout)
		}
		n := hout * wout
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				s := float32(0)
				for r := 0; r < tc.c*tc.k*tc.k; r++ {
					s += cols[r*n+oy*wout+ox] * wt.Data[r]
				}
				want := naiveConvPoint(x.Data, tc.c, tc.h, tc.w, wt.Data, tc.k, tc.stride, tc.pad, oy, ox)
				if math.Abs(float64(s-want)) > 1e-3 {
					t.Fatalf("%+v: conv(%d,%d) = %v, want %v", tc, oy, ox, s, want)
				}
			}
		}
	}
}

func TestRandnDeterministic(t *testing.T) {
	a, b := New(16), New(16)
	a.Randn(rand.New(rand.NewSource(42)), 1)
	b.Randn(rand.New(rand.NewSource(42)), 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randn must be deterministic for a fixed seed")
		}
	}
}
