package nn

import (
	"math/rand"

	"edgetta/internal/tensor"
)

// MaxPool2d performs non-overlapping k×k max pooling (stride = k).
type MaxPool2d struct {
	name     string
	K        int
	h, w     int
	argmax   []int // flat input index of each output's max
	lastSpec Spec
}

// NewMaxPool2d constructs a k×k max pool.
func NewMaxPool2d(name string, k int) *MaxPool2d { return &MaxPool2d{name: name, K: k} }

// Name implements Layer.
func (p *MaxPool2d) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2d) Params() []*Param { return nil }

// Spec implements Layer.
func (p *MaxPool2d) Spec() Spec { return p.lastSpec }

// Forward implements Layer.
func (p *MaxPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindPool, p.name, false, t0)
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.h, p.w = h, w
	oh, ow := h/p.K, w/p.K
	y := tensor.New(n, c, oh, ow)
	if cap(p.argmax) < y.Numel() {
		p.argmax = make([]int, y.Numel())
	}
	p.argmax = p.argmax[:y.Numel()]
	for i := 0; i < n*c; i++ {
		src := x.Data[i*h*w : (i+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bi := src[oy*p.K*w+ox*p.K], oy*p.K*w+ox*p.K
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						idx := (oy*p.K+ky)*w + ox*p.K + kx
						if src[idx] > best {
							best, bi = src[idx], idx
						}
					}
				}
				out := i*oh*ow + oy*ow + ox
				y.Data[out] = best
				p.argmax[out] = i*h*w + bi
			}
		}
	}
	p.lastSpec = Spec{Kind: KindPool, LayerName: p.name, OutElems: int64(y.Numel()),
		SavedElems: int64(y.Numel()), Batch: int64(n)}
	return y
}

// Backward implements Layer: the gradient routes to each window's argmax.
func (p *MaxPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindPool, p.name, true, t0)
	n, c := grad.Dim(0), grad.Dim(1)
	dx := tensor.New(n, c, p.h, p.w)
	for i, g := range grad.Data {
		dx.Data[p.argmax[i]] += g
	}
	return dx
}

// Dropout zeroes activations with probability P during training and
// rescales survivors by 1/(1−P) (inverted dropout); it is the identity at
// inference. WideResNet's original recipe includes dropout inside the
// blocks; the paper's checkpoints train it at 0 for CIFAR, so the study's
// models omit it, but the layer is provided for completeness.
type Dropout struct {
	name     string
	P        float32
	rng      *rand.Rand
	mask     []bool
	lastSpec Spec
}

// NewDropout constructs a dropout layer with the given drop probability.
func NewDropout(name string, p float32, rng *rand.Rand) *Dropout {
	return &Dropout{name: name, P: p, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Spec implements Layer.
func (d *Dropout) Spec() Spec { return d.lastSpec }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindOther, d.name, false, t0)
	d.lastSpec = Spec{Kind: KindAct, LayerName: d.name, OutElems: int64(x.Numel()), Batch: int64(x.Dim(0))}
	if !train || d.P <= 0 {
		d.mask = d.mask[:0] // marks pass-through for Backward
		return x
	}
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]bool, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	y := tensor.New(x.Shape()...)
	scale := 1 / (1 - d.P)
	for i, v := range x.Data {
		keep := d.rng.Float32() >= d.P
		d.mask[i] = keep
		if keep {
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := profStart()
	defer profEnd(KindOther, d.name, true, t0)
	if len(d.mask) == 0 {
		return grad
	}
	dx := tensor.New(grad.Shape()...)
	scale := 1 / (1 - d.P)
	for i, g := range grad.Data {
		if d.mask[i] {
			dx.Data[i] = g * scale
		}
	}
	return dx
}
