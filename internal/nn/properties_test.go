package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgetta/internal/tensor"
)

// Property: softmax is invariant to adding a constant to every logit in a
// row.
func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64, shift float32) bool {
		if shift > 30 || shift < -30 {
			shift = 0 // avoid float32 overflow corners
		}
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(3, 6)
		x.Randn(rng, 2)
		y := x.Clone()
		for i := range y.Data {
			y.Data[i] += shift
		}
		p1, p2 := Softmax(x), Softmax(y)
		for i := range p1.Data {
			if math.Abs(float64(p1.Data[i]-p2.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: convolution is homogeneous — conv(a·x) = a·conv(x).
func TestConvHomogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2d("c", rng, 3, 5, 3, 1, 1, 1)
	f := func(seed int64, scaleRaw uint8) bool {
		scale := 0.1 + float32(scaleRaw%50)/10
		r := rand.New(rand.NewSource(seed))
		x := tensor.New(2, 3, 6, 6)
		x.Randn(r, 1)
		y1 := conv.Forward(x, false).Clone()
		xs := x.Clone()
		xs.Scale(scale)
		y2 := conv.Forward(xs, false)
		for i := range y1.Data {
			want := y1.Data[i] * scale
			if math.Abs(float64(y2.Data[i]-want)) > 1e-3*(1+math.Abs(float64(want))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch-statistics BN output is invariant to any positive
// rescaling of its input (the normalization divides the scale back out).
// This is exactly why BN-Norm neutralizes contrast-style corruption.
func TestBatchNormScaleInvariance(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		scale := 0.2 + float32(scaleRaw%40)/10
		rng := rand.New(rand.NewSource(seed))
		bn := NewBatchNorm2d("bn", 3, tensor.Rect{})
		x := tensor.New(4, 3, 4, 4)
		x.Randn(rng, 1)
		y1 := bn.Forward(x, true).Clone()
		bn2 := NewBatchNorm2d("bn", 3, tensor.Rect{})
		xs := x.Clone()
		xs.Scale(scale)
		y2 := bn2.Forward(xs, true)
		for i := range y1.Data {
			if math.Abs(float64(y1.Data[i]-y2.Data[i])) > 2e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: batch-statistics BN is also invariant to per-channel additive
// shifts (brightness-style corruption).
func TestBatchNormShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bn := NewBatchNorm2d("bn", 2, tensor.Rect{})
	x := tensor.New(4, 2, 3, 3)
	x.Randn(rng, 1)
	y1 := bn.Forward(x, true).Clone()
	bn2 := NewBatchNorm2d("bn", 2, tensor.Rect{})
	xs := x.Clone()
	for i := range xs.Data {
		xs.Data[i] += 7.5
	}
	y2 := bn2.Forward(xs, true)
	for i := range y1.Data {
		if math.Abs(float64(y1.Data[i]-y2.Data[i])) > 2e-3 {
			t.Fatalf("shift broke BN invariance at %d: %v vs %v", i, y1.Data[i], y2.Data[i])
		}
	}
}

// Property: cross-entropy gradient rows sum to ~0 (softmax probabilities
// minus a one-hot both sum to 1).
func TestCrossEntropyGradientRowsSumZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(4, 7)
		x.Randn(rng, 2)
		labels := []int{rng.Intn(7), rng.Intn(7), rng.Intn(7), rng.Intn(7)}
		_, g := CrossEntropy(x, labels)
		for r := 0; r < 4; r++ {
			s := 0.0
			for c := 0; c < 7; c++ {
				s += float64(g.At(r, c))
			}
			if math.Abs(s) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the entropy gradient also has zero row sums (entropy depends
// on logits only through softmax, which is shift-invariant).
func TestEntropyGradientRowsSumZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(3, 5)
		x.Randn(rng, 2)
		_, g := MeanEntropy(x)
		for r := 0; r < 3; r++ {
			s := 0.0
			for c := 0; c < 5; c++ {
				s += float64(g.At(r, c))
			}
			if math.Abs(s) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
