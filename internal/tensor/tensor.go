// Package tensor implements the dense float32 tensors that every other
// package in this repository builds on. Tensors are stored row-major
// (NCHW for images) in a single backing slice.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense float32 array with an explicit shape. The zero value is
// not usable; construct tensors with New, FromSlice, Zeros, etc.
type Tensor struct {
	Data  []float32
	shape []int

	// arena is the Arena that owns Data, nil for a heap tensor; state is
	// where the arena has it and holds how many Holds it has (see Arena).
	arena *Arena
	state uint8
	holds int32
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkedNumel(shape)
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data (not copied) in a tensor with the given shape.
// It panics if len(data) does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkedNumel(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

func checkedNumel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			// A copy is formatted so that shape itself does not escape: a
			// caller's variadic dimensions stay on its stack.
			panic(fmt.Sprintf("tensor: invalid dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Numel returns the total number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Randn fills the tensor with N(0, std) samples from rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// Uniform fills the tensor with U[lo, hi) samples from rng. The product
// is rounded before the sum, so no build fuses the two.
func (t *Tensor) Uniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + float64(rng.Float64()*(hi-lo)))
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Sum returns the sum of all elements in float64 for stability.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// MaxAbs returns the largest absolute element value.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// ArgmaxRows treats t as [rows, cols] and returns the argmax of each row.
func (t *Tensor) ArgmaxRows() []int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgmaxRows requires 2-D tensor, got %v", t.shape))
	}
	rows, cols := t.shape[0], t.shape[1]
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		best, bi := t.Data[r*cols], 0
		for c := 1; c < cols; c++ {
			if v := t.Data[r*cols+c]; v > best {
				best, bi = v, c
			}
		}
		out[r] = bi
	}
	return out
}
