// Package tensor stubs the packed-weight surface for the markupdated golden
// tests: the analyzer recognises a pack by its result type.
package tensor

// PackedWeights mirrors the real type: an immutable kernel-order copy of a
// weight matrix, stamped with the Param version it was built from.
type PackedWeights struct {
	Data    []float32
	Version uint64
}

// PackConvWeights packs a weight matrix for the forward kernel.
func PackConvWeights(w []float32, outC, inC, k int) *PackedWeights {
	return &PackedWeights{Data: append([]float32(nil), w...)}
}

// PackConvWeightsRotated packs the input-gradient kernel.
func PackConvWeightsRotated(w []float32, outC, inC, k int) *PackedWeights {
	return PackConvWeights(w, inC, outC, k)
}
