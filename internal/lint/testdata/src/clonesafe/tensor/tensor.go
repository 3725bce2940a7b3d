// Package tensor stubs the Tensor and Arena types for the clonesafe golden
// tests (the analyzer matches them by package and type name).
package tensor

// Tensor mirrors the real tensor.Tensor: a backing slice and a shape.
type Tensor struct {
	Data  []float32
	shape []int
}

// Arena mirrors the real tensor.Arena: the buffers one model's passes draw
// their activations from.
type Arena struct{ bufs []*Tensor }
