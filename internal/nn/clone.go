package nn

import "fmt"

// Cloner is implemented by layers that can deep-copy themselves. A clone
// shares no mutable backing arrays with the original: parameters, gradient
// accumulators and any statistics buffers are fresh allocations, while
// forward caches start empty (they are repopulated by the next Forward).
// The serving layer relies on this to build independent model replicas.
type Cloner interface {
	CloneLayer() Layer
}

// Clone deep-copies the layer tree rooted at l. It panics if any layer in
// the tree does not implement Cloner — a new layer type must add CloneLayer
// before it can participate in replica-based serving.
func Clone(l Layer) Layer {
	c, ok := l.(Cloner)
	if !ok {
		panic(fmt.Sprintf("nn: %T (%s) does not implement Cloner", l, l.Name()))
	}
	return c.CloneLayer()
}

// clone returns a Param with copied data and a fresh zero gradient. Frozen
// is preserved: like the BatchNorm adaptation switches, a clone of an armed
// model backpropagates exactly as the original would (core.New re-arms its
// own model either way). Every field is named here so a new one cannot be
// dropped silently — ttalint's clonesafe holds this literal to that.
func (p *Param) clone() *Param {
	return &Param{
		Name:   p.Name,
		Data:   append([]float32(nil), p.Data...),
		Grad:   make([]float32, len(p.Grad)),
		Frozen: p.Frozen,
	}
}

// CloneLayer implements Cloner.
func (s *Sequential) CloneLayer() Layer {
	c := &Sequential{name: s.name, layers: make([]Layer, len(s.layers))}
	for i, l := range s.layers {
		c.layers[i] = Clone(l)
	}
	return c
}

// CloneLayer implements Cloner.
func (r *ReLU) CloneLayer() Layer { return &ReLU{name: r.name, Cap: r.Cap} }

// CloneLayer implements Cloner.
func (l *Linear) CloneLayer() Layer {
	return &Linear{name: l.name, In: l.In, Out: l.Out,
		Weight: l.Weight.clone(), Bias: l.Bias.clone(), noInputGrad: l.noInputGrad}
}

// CloneLayer implements Cloner.
func (p *GlobalAvgPool) CloneLayer() Layer { return &GlobalAvgPool{name: p.name} }

// CloneLayer implements Cloner.
func (p *AvgPool2d) CloneLayer() Layer { return &AvgPool2d{name: p.name, K: p.K} }

// CloneLayer implements Cloner.
func (f *Flatten) CloneLayer() Layer { return &Flatten{name: f.name} }

// CloneLayer implements Cloner.
func (c *Conv2d) CloneLayer() Layer {
	return &Conv2d{name: c.name, InC: c.InC, OutC: c.OutC,
		K: c.K, Stride: c.Stride, Pad: c.Pad, Groups: c.Groups,
		Weight: c.Weight.clone(), noInputGrad: c.noInputGrad}
}

// CloneLayer implements Cloner. The running statistics are copied, along
// with the adaptation switch internal/core flips, so a clone taken
// mid-adaptation continues from exactly the captured state.
func (b *BatchNorm2d) CloneLayer() Layer {
	return &BatchNorm2d{
		name: b.name, C: b.C, Eps: b.Eps, Momentum: b.Momentum,
		Gamma: b.Gamma.clone(), Beta: b.Beta.clone(),
		RunningMean:   append([]float32(nil), b.RunningMean...),
		RunningVar:    append([]float32(nil), b.RunningVar...),
		UseBatchStats: b.UseBatchStats,
	}
}
