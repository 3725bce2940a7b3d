// Package tensor stubs the derived-weights surface for the markupdated golden
// tests: the analyzer recognises the copy by its result type.
package tensor

// RotatedWeights mirrors the real type: an immutable rotated copy of a
// weight matrix, stamped with the Param version it was built from.
type RotatedWeights struct {
	Data    []float32
	Version uint64
}

// NewRotatedWeights rotates a weight matrix into the input-gradient kernel.
func NewRotatedWeights(w []float32, outC, inC, k int) *RotatedWeights {
	return &RotatedWeights{Data: append([]float32(nil), w...)}
}
