// Package nn implements the neural-network layers, blocks and losses used by
// the test-time-adaptation study: convolutions (with groups), batch
// normalization with the three statistics modes the paper's algorithms need
// and the rectifier that ends it, pooling, linear layers, and the
// cross-entropy / Shannon entropy losses with analytic gradients.
//
// Autograd is layer-structured rather than tape-based: each layer implements
// an explicit Backward and keeps from its Forward only what that reads.
// That is less than PyTorch's dynamic graph saves (the footprint the paper
// profiles, which Spec.SavedElems keeps describing): a layer holds
// references to its input or output tensor rather than copies, a conv or
// linear layer whose weight is frozen keeps no input at all (its dX needs
// the weights alone), and BatchNorm recomputes x̂ — and the value its
// rectifier saw — from its input and per-channel μ, σ⁻¹, γ, β. The
// rectifier (ReLU or ReLU6) is no layer of its own: it is the epilogue of
// the BatchNorm before it, fixed when that layer is built, and runs in the
// BatchNorm's one pass over the activation, after the residual a block
// may add (BatchNorm2d.ForwardFused). Every residual sum is such an
// operand of the layer that makes one of its addends, added to what that
// layer just wrote while it is in cache — a BatchNorm's forward or
// backward (BatchNorm2d.BackwardFused), a convolution's forward or dX
// (Conv2d.ForwardFused, Conv2d.BackwardFused) — never a pass of its own.
//
// Those references are only as good as the memory behind them. A layer
// built on its own allocates every activation and gradient, and what it
// holds stays readable until its next Forward. A layer inside a
// models.Model draws them from the model's tensor.Arena (Attach) and holds
// there what its Backward reads (Scope): an activation goes back to the
// arena once its maker is done with it and its holders have run their
// Backward, a gradient once its consumer has run, and after a pass nobody
// will backpropagate (Model.Infer) nothing was held — the references then
// point at recycled memory and Backward must not be called.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"edgetta/internal/tensor"
)

// Param is a learnable parameter with its gradient accumulator. Nothing is
// derived from Data and kept, so any code may write it between calls
// without telling anyone.
type Param struct {
	Name string
	Data []float32
	Grad []float32

	// Frozen marks a parameter nobody wants a gradient for (PyTorch's
	// requires_grad=false): a layer's Backward neither computes nor writes
	// the Grad of a frozen Param. The flag is sticky, like
	// BatchNorm2d.UseBatchStats — FreezeExceptBN sets it, Unfreeze clears
	// it, and a caller that needs full gradients unfreezes first.
	Frozen bool
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float32, n), Grad: make([]float32, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { clear(p.Grad) }

// Layer is the unit of forward/backward computation.
//
// Forward runs the layer, caching whatever Backward needs. The train flag
// selects training behaviour (for BatchNorm: batch statistics and running-
// stat updates). Backward consumes the gradient w.r.t. the layer's output
// and returns the gradient w.r.t. its input, accumulating parameter
// gradients into Params — except those of frozen Params, whose Grad a
// layer never writes (see FreezeExceptBN, which also lets a conv at the
// graph input return a nil input gradient).
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	Spec() Spec
	Name() string
}

// Container is implemented by composite layers so tooling can walk the tree.
type Container interface {
	Children() []Layer
}

// Walk visits every layer in the tree rooted at l, composites included,
// in forward order.
func Walk(l Layer, fn func(Layer)) {
	fn(l)
	if c, ok := l.(Container); ok {
		for _, ch := range c.Children() {
			Walk(ch, fn)
		}
	}
}

// CollectParams gathers the parameters of the whole tree rooted at l.
func CollectParams(l Layer) []*Param {
	var out []*Param
	Walk(l, func(x Layer) {
		if _, ok := x.(Container); ok {
			return // composites report no params of their own
		}
		out = append(out, x.Params()...)
	})
	return out
}

// ZeroGrads clears every gradient in the tree rooted at l.
func ZeroGrads(l Layer) {
	for _, p := range CollectParams(l) {
		p.ZeroGrad()
	}
}

// inputLayer returns the layer that consumes the network's input when the
// tree says so unambiguously: the first layer of nested Sequentials. Any
// other composite there is returned as is — a block at the input may also
// feed a shortcut — and is no *Conv2d.
func inputLayer(l Layer) Layer {
	for {
		s, ok := l.(*Sequential)
		if !ok || len(s.layers) == 0 {
			return l
		}
		l = s.layers[0]
	}
}

// FreezeExceptBN prepares the tree rooted at l for a backward pass that
// only BatchNorm γ/β learn from — BN-Opt's: every other parameter is
// frozen, so conv/linear layers stop computing dW, and a conv at the graph
// input stops computing a dX nobody reads (Backward on the tree then
// returns nil). Unfreeze is the inverse.
func FreezeExceptBN(l Layer) {
	for _, p := range CollectParams(l) {
		p.Frozen = true
	}
	for _, bn := range BatchNorms(l) {
		bn.Gamma.Frozen, bn.Beta.Frozen = false, false
	}
	if in, ok := inputLayer(l).(*Conv2d); ok {
		in.noInputGrad = true
	}
}

// Unfreeze restores full-gradient backward on the tree rooted at l: every
// parameter learns and Backward returns the input gradient again. Callers
// that need full gradients from a model an adapter may have armed
// (train.Train) call it on entry.
func Unfreeze(l Layer) {
	for _, p := range CollectParams(l) {
		p.Frozen = false
	}
	if in, ok := inputLayer(l).(*Conv2d); ok {
		in.noInputGrad = false
	}
}

// CopyState makes dst, a tree built by the same constructor calls as src,
// continue from src's state: every parameter's Data and Frozen, every
// BatchNorm's running statistics, UseBatchStats, Eps and Momentum, and
// whether the conv at the input skips dX. That is everything of a layer
// that changes between passes; the rest is its constructor's, and what a
// pass caches the next pass rebuilds. Gradients are not copied. CopyState
// panics, before it writes anything, when the trees' parameters or
// BatchNorms differ in name or length.
func CopyState(dst, src Layer) {
	dp, sp := CollectParams(dst), CollectParams(src)
	db, sb := BatchNorms(dst), BatchNorms(src)
	dIn, _ := inputLayer(dst).(*Conv2d)
	sIn, _ := inputLayer(src).(*Conv2d)
	same := len(dp) == len(sp) && len(db) == len(sb) && (dIn == nil) == (sIn == nil)
	for i := 0; same && i < len(sp); i++ {
		same = dp[i].Name == sp[i].Name && len(dp[i].Data) == len(sp[i].Data)
	}
	for i := 0; same && i < len(sb); i++ {
		same = db[i].name == sb[i].name && len(db[i].RunningMean) == len(sb[i].RunningMean)
	}
	if !same {
		panic(fmt.Sprintf("nn: CopyState from %s into %s: their parameters or BatchNorms differ", src.Name(), dst.Name()))
	}
	for i, p := range sp {
		copy(dp[i].Data, p.Data)
		dp[i].Frozen = p.Frozen
	}
	for i, b := range sb {
		d := db[i]
		copy(d.RunningMean, b.RunningMean)
		copy(d.RunningVar, b.RunningVar)
		d.UseBatchStats, d.Eps, d.Momentum = b.UseBatchStats, b.Eps, b.Momentum
	}
	if sIn != nil {
		dIn.noInputGrad = sIn.noInputGrad
	}
}

// BatchNorms returns every BatchNorm2d in the tree rooted at l, in forward
// order. The adaptation algorithms in internal/core operate on this set.
func BatchNorms(l Layer) []*BatchNorm2d {
	var out []*BatchNorm2d
	Walk(l, func(x Layer) {
		if bn, ok := x.(*BatchNorm2d); ok {
			out = append(out, bn)
		}
	})
	return out
}

// Scope is what a layer knows of the model it runs in: Arena, where its
// activations, gradients and transient buffers come from, and Infer, set
// for passes nobody will backpropagate (Attach(…, true)). Both are zero in
// a layer built outside a model, and a nil arena allocates
// (tensor.Arena), so no site asks which it has. Every layer of this
// package embeds it, and so does a composite defined elsewhere that wants
// Attach to reach it.
//
// One rule governs the arena in every pass. A composite frees what it made
// after its last forward reader — never its input, nor its result. A leaf
// layer holds (tensor.Arena.Hold) only what its own Backward reads, and
// unholds it at the end of that Backward, so the gradients of the layers
// below reuse the buffers of those already passed. Under Infer nobody
// holds anything, so every activation goes back at its maker's Free.
type Scope struct {
	Arena *tensor.Arena
	Infer bool
}

func (s *Scope) attach(a *tensor.Arena, infer bool) { s.Arena, s.Infer = a, infer }

// hold keeps t for the layer's Backward, unless the pass is an Infer.
func (s *Scope) hold(t *tensor.Tensor) {
	if !s.Infer {
		s.Arena.Hold(t)
	}
}

// Attach makes every layer in the tree rooted at l that embeds a Scope draw
// its activations and gradients from a, for the passes that follow. An
// activation or gradient inside the tree is then valid until a is Reset or
// until its last reader has run: Backward hands each gradient back as soon
// as its consumer has run and each activation once the Backward that reads
// it has, and under infer — nobody will call Backward, so nobody holds —
// each activation goes back after its last forward reader, so Backward
// after such a pass reads recycled memory.
func Attach(l Layer, a *tensor.Arena, infer bool) {
	Walk(l, func(x Layer) {
		if s, ok := x.(interface{ attach(*tensor.Arena, bool) }); ok {
			s.attach(a, infer)
		}
	})
}

// sameShape reports whether t has the given shape: the one a layer's
// forward recorded, since a tensor it read may since have been released
// and handed out again under another.
func sameShape(t *tensor.Tensor, shape []int) bool {
	if t.NDim() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

// Sequential chains layers; Forward threads the activation through each in
// order and Backward replays them in reverse.
type Sequential struct {
	Scope
	name   string
	layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.layers = append(s.layers, layers...) }

// Forward implements Layer. The chain frees what it made once the next
// layer has read it — never its input, which is its caller's, nor its
// result. Under Infer, a BatchNorm whose input the chain made writes its
// result over that input, which has no other reader.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	var made *tensor.Tensor // the chain's own tensor, once x is one
	for _, l := range s.layers {
		var y *tensor.Tensor
		if bn, ok := l.(*BatchNorm2d); ok && s.Infer && x == made {
			y = bn.ForwardFusedInPlace(x, nil, train)
		} else {
			y = l.Forward(x, train)
		}
		if y != x { // an in-place BatchNorm returns its input
			s.Arena.Free(made)
			made = y
		}
		x = y
	}
	return x
}

// Backward implements Layer. Each gradient goes back to the arena once the
// layer before has consumed it; grad itself is the caller's.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	var made *tensor.Tensor
	for i := len(s.layers) - 1; i >= 0; i-- {
		dx := s.layers[i].Backward(grad)
		s.Arena.Free(made)
		made = dx
		grad = dx
	}
	return grad
}

// Params implements Layer; composites report none of their own.
func (s *Sequential) Params() []*Param { return nil }

// Spec implements Layer.
func (s *Sequential) Spec() Spec { return Spec{Kind: KindComposite, LayerName: s.name} }

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Children implements Container.
func (s *Sequential) Children() []Layer { return s.layers }

// kaimingConv initializes a conv weight [cout, cinPerGroup*k*k] with
// He-normal fan-out scaling, matching the reference PyTorch models. A nil
// rng leaves w as it is.
func kaimingConv(rng *rand.Rand, w []float32, fanOut int) {
	if rng == nil {
		return
	}
	std := math.Sqrt(2.0 / float64(fanOut))
	for i := range w {
		w[i] = float32(rng.NormFloat64() * std)
	}
}

func shapeErr(layer string, shape []int) string {
	return fmt.Sprintf("nn: %s: unexpected input shape %v", layer, shape)
}
