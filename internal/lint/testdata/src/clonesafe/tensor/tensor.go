// Package tensor stubs the Tensor type for the clonesafe golden tests (the
// analyzer matches it by package and type name).
package tensor

// Tensor mirrors the real tensor.Tensor: a backing slice and a shape.
type Tensor struct {
	Data  []float32
	shape []int
}
