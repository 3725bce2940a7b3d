package nn

import "edgetta/internal/tensor"

// Kind classifies layers for the profiler and the device cost model, which
// charge convolution, batch-norm, and everything else at different rates
// (the paper's Figs. 4, 7, 10 break time down along exactly these lines).
type Kind int

// Layer kinds.
const (
	KindOther Kind = iota
	KindConv
	KindBN
	KindLinear
	// KindAct is activation work. No layer reports it as its Spec kind
	// or records it as a span: every rectifier is a BatchNorm's epilogue
	// (Spec.Rectifies), timed in that layer's bn spans. The profiler's
	// tables keep the kind, and its rows read zero.
	KindAct
	KindPool
	KindComposite
	// KindPack is a profiler-only kind: the time a conv spends on its
	// staging copies — the input staged for the direct kernel with the
	// zero border baked in, and in backward dY staged and the residues
	// interleaved into dX; copies, not arithmetic. The name dates from the
	// layout pack it replaced and is a metric name of the repository's
	// benchmark. It is recorded inside a conv layer's KindConv wall-time
	// interval, so it is a contained sub-measurement, never added to
	// KindConv when summing phase totals. No layer reports it as its Spec
	// kind, so the device cost model never sees it. It stays the last
	// kind: the profiler's tables end at it.
	KindPack
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindBN:
		return "bn"
	case KindLinear:
		return "linear"
	case KindAct:
		return "act"
	case KindPool:
		return "pool"
	case KindComposite:
		return "composite"
	case KindPack:
		return "pack"
	default:
		return "other"
	}
}

// Spec describes one layer's most recent forward pass: the operation counts
// and memory footprint the device simulator needs. Counts are for the whole
// batch that was run.
type Spec struct {
	Kind      Kind
	LayerName string

	MACs       int64            // forward multiply-accumulate count
	ParamCount int64            // learnable parameters
	BNChannels int64            // channels, for KindBN only
	Conv       tensor.ConvShape // the geometry run, for KindConv only
	OutElems   int64            // output tensor elements
	// SavedElems is the number of elements PyTorch's dynamic graph would
	// save for this layer's backward — the quantity internal/device is
	// calibrated on — not what this implementation retains (BatchNorm owns
	// no activation-sized buffer; see the package doc). A rectifying
	// BatchNorm counts the output PyTorch's ReLU saves with its input.
	SavedElems int64
	// Rectifies is set, for KindBN only, when the layer ends in a
	// rectifier: the activation function the simulator charges for
	// OutElems more elements.
	Rectifies bool
}
