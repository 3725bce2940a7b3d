package nn

import (
	"math"
	"math/rand"

	"edgetta/internal/tensor"
)

// Linear is a fully connected layer y = x·Wᵀ + b over [N, in] inputs.
type Linear struct {
	Scope
	name    string
	In, Out int
	Weight  *Param // [Out, In]
	Bias    *Param // [Out]

	// input is the last forward's input, held for the weight gradient and
	// nil when the weight was frozen; n is its batch.
	input    *tensor.Tensor
	n        int
	lastSpec Spec
}

// NewLinear constructs a fully connected layer with uniform fan-in init, or
// with zero weights and bias when rng is nil — for a layer whose parameters
// are about to be copied in (CopyState).
func NewLinear(name string, rng *rand.Rand, in, out int) *Linear {
	l := &Linear{name: name, In: in, Out: out,
		Weight: newParam(name+".weight", out*in), Bias: newParam(name+".bias", out)}
	if rng == nil {
		return l
	}
	bound := 1.0 / math.Sqrt(float64(in))
	for i := range l.Weight.Data {
		l.Weight.Data[i] = float32((rng.Float64()*2 - 1) * bound)
	}
	for i := range l.Bias.Data {
		l.Bias.Data[i] = float32((rng.Float64()*2 - 1) * bound)
	}
	return l
}

// Name implements Layer.
func (l *Linear) Name() string { return l.name }

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Spec implements Layer.
func (l *Linear) Spec() Spec { return l.lastSpec }

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.NDim() != 2 || x.Dim(1) != l.In {
		panic(shapeErr(l.name, x.Shape()))
	}
	t0 := profStart()
	defer profEnd(KindLinear, l.name, false, t0)
	n := x.Dim(0)
	l.n, l.input = n, nil
	if !l.Weight.Frozen {
		l.input = x
		l.hold(x)
	}
	// The logits are a heap tensor, not the arena's: they are what a model
	// returns, and its caller may keep them past the next pass.
	y := tensor.New(n, l.Out)
	tensor.MatMulTransBInto(y.Data, x.Data, l.Weight.Data, n, l.In, l.Out, false)
	for i := 0; i < n; i++ {
		row := y.Data[i*l.Out : (i+1)*l.Out]
		for j, bv := range l.Bias.Data {
			row[j] += bv
		}
	}
	l.lastSpec = Spec{Kind: KindLinear, LayerName: l.name,
		MACs:       int64(n) * int64(l.In) * int64(l.Out),
		ParamCount: int64(len(l.Weight.Data) + len(l.Bias.Data)),
		OutElems:   int64(y.Numel()), SavedElems: int64(x.Numel())}
	return y
}

// Backward implements Layer: dW += dYᵀ · X ; dB += column sums of dY ;
// dX = dY · W. Frozen parameters' gradients are skipped.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if grad.NDim() != 2 || grad.Dim(0) != l.n || grad.Dim(1) != l.Out {
		panic(shapeErr(l.name, grad.Shape()))
	}
	if l.input == nil && !l.Weight.Frozen {
		panic("nn: " + l.name + ": the weight was unfrozen after the Forward, which kept no input for its gradient")
	}
	t0 := profStart()
	defer profEnd(KindLinear, l.name, true, t0)
	n := grad.Dim(0)
	if !l.Weight.Frozen {
		tensor.MatMulTransAInto(l.Weight.Grad, grad.Data, l.input.Data, n, l.Out, l.In, true)
		l.Arena.Unhold(l.input)
	}
	if !l.Bias.Frozen {
		for i := 0; i < n; i++ {
			for j := 0; j < l.Out; j++ {
				l.Bias.Grad[j] += grad.Data[i*l.Out+j]
			}
		}
	}
	dx := l.Arena.New(n, l.In)
	tensor.MatMulInto(dx.Data, grad.Data, l.Weight.Data, n, l.Out, l.In, false)
	return dx
}

// GlobalAvgPool reduces [N,C,H,W] to [N,C] by spatial averaging: each
// plane's float32 sum in ascending order from +0, times 1/(H·W).
type GlobalAvgPool struct {
	Scope
	name     string
	h, w     int
	lastSpec Spec
}

// poolChains is how many planes the forward sums side by side: each plane
// is still one dependent chain of adds, but that many independent chains
// keep the adder busy where one would wait on its own latency.
const poolChains = 8

// NewGlobalAvgPool constructs the pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name implements Layer.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params implements Layer.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Spec implements Layer.
func (p *GlobalAvgPool) Spec() Spec { return p.lastSpec }

// Forward implements Layer.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindPool, p.name, false, t0)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.h, p.w = h, w
	y := p.Arena.New(n, c)
	plane := h * w
	inv := 1 / float32(plane)
	i := 0
	for ; i+poolChains <= n*c; i += poolChains {
		xs := x.Data[i*plane:][:poolChains*plane]
		x0, x1, x2, x3 := xs[:plane], xs[plane:][:plane], xs[2*plane:][:plane], xs[3*plane:][:plane]
		x4, x5, x6, x7 := xs[4*plane:][:plane], xs[5*plane:][:plane], xs[6*plane:][:plane], xs[7*plane:][:plane]
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for j := range x0 {
			s0 += x0[j]
			s1 += x1[j]
			s2 += x2[j]
			s3 += x3[j]
			s4 += x4[j]
			s5 += x5[j]
			s6 += x6[j]
			s7 += x7[j]
		}
		out := y.Data[i:][:poolChains]
		out[0], out[1], out[2], out[3] = s0*inv, s1*inv, s2*inv, s3*inv
		out[4], out[5], out[6], out[7] = s4*inv, s5*inv, s6*inv, s7*inv
	}
	for ; i < n*c; i++ {
		s := float32(0)
		for _, v := range x.Data[i*plane:][:plane] {
			s += v
		}
		y.Data[i] = s * inv
	}
	p.lastSpec = Spec{Kind: KindPool, LayerName: p.name, OutElems: int64(n * c)}
	return y
}

// Backward implements Layer.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindPool, p.name, true, t0)
	n, c := grad.Dim(0), grad.Dim(1)
	plane := p.h * p.w
	inv := 1 / float32(plane)
	dx := p.Arena.New(n, c, p.h, p.w)
	for i, g := range grad.Data[:n*c] {
		fill(dx.Data[i*plane:][:plane], g*inv)
	}
	return dx
}

// fill sets every element of d to v, eight stores per loop trip.
func fill(d []float32, v float32) {
	j := 0
	for ; j+8 <= len(d); j += 8 {
		e := d[j:][:8]
		e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7] = v, v, v, v, v, v, v, v
	}
	for ; j < len(d); j++ {
		d[j] = v
	}
}
