// Package clonesafe exercises the Clone aliasing analyzer: Clone methods
// must not hand the clone direct references to the receiver's slice or map
// fields.
package clonesafe

import "edgetta/internal/lint/testdata/src/clonesafe/tensor"

type layer struct {
	Weights []float32
	Stats   map[string]float64
	Name    string
}

// Clone aliases both mutable containers; the string is fine.
func (l *layer) Clone() *layer {
	return &layer{
		Weights: l.Weights, // want "aliases the receiver"
		Stats:   l.Stats,   // want "aliases the receiver"
		Name:    l.Name,
	}
}

// CloneLayer takes the one-line shortcut that aliases every container at
// once.
func (l *layer) CloneLayer() *layer {
	cp := *l // want "shallow struct copy"
	return &cp
}

// clone is the sanctioned deep copy: fresh backing storage for the slice
// and map.
func (l *layer) clone() *layer {
	cp := &layer{Name: l.Name}
	cp.Weights = append([]float32(nil), l.Weights...)
	cp.Stats = make(map[string]float64, len(l.Stats))
	for k, v := range l.Stats {
		cp.Stats[k] = v
	}
	return cp
}

// offsets is a per-direction table held by value, next to the scalar it was
// built for.
type offsets struct {
	stride int
	table  []int32
}

type conv struct{ fw, bw offsets }

// Clone copies one struct whole — its table now has two owners — and
// carries only the scalar of the other, which is fine.
func (c *conv) Clone() *conv {
	return &conv{
		fw: c.fw, // want "shallow struct copy of the receiver's c.fw aliases its table"
		bw: offsets{stride: c.bw.stride},
	}
}

// norm keeps references to the activations its backward reads, like
// BatchNorm2d (input, fused output) and ReLU (output).
type norm struct {
	Gamma   []float32
	in, out *tensor.Tensor
}

// Clone copies the parameters properly but carries the saved activations
// over: the clone's first Backward would run through the original's forward.
func (n *norm) Clone() *norm {
	c := &norm{
		Gamma: append([]float32(nil), n.Gamma...),
		in:    n.in, // want "saved tensor n.in"
	}
	c.out = n.out // want "saved tensor n.out"
	return c
}

// CloneLayer is the sanctioned shape: saved tensors left empty. Reading
// through one (its length, say) is not carrying it over.
func (n *norm) CloneLayer() *norm {
	c := &norm{Gamma: append([]float32(nil), n.Gamma...)}
	if n.in != nil {
		_ = len(n.in.Data)
	}
	return c
}

// scope is what a layer knows of the model it runs in, held by value.
type scope struct{ arena *tensor.Arena }

// model draws its activations from an arena, like models.Model; block
// reaches the same arena through an embedded scope, like the layers.
type model struct {
	Name  string
	arena *tensor.Arena
}

type block struct {
	scope
	stride int
}

// Clone copies the struct whole and keeps the arena: two replicas would
// hand each other's activations out.
func (m *model) Clone() *model {
	cp := *m // want "shares its arena .arena. with the clone"
	return &cp
}

// CloneLayer is the sanctioned shape of that shortcut: the field is set on
// the copy by name.
func (m *model) CloneLayer() *model {
	cp := *m
	cp.arena = nil
	return &cp
}

// clone names the arena in a literal instead.
func (m *model) clone() *model {
	return &model{Name: m.Name, arena: m.arena} // want "shares the receiver's arena through m.arena"
}

// Clone carries the scope, and the arena inside it, over; a block built
// from its scalars alone is fine.
func (b *block) Clone() *block {
	return &block{scope: b.scope, stride: b.stride} // want "shares the receiver's arena through b.scope"
}

// CloneLayer copies the struct whole; resetting the scope resets the arena
// in it.
func (b *block) CloneLayer() *block {
	cp := *b
	cp.scope = scope{}
	return &cp
}

type scalars struct{ A, B float64 }

// Clone of a struct with no slice or map fields may copy shallowly.
func (s *scalars) Clone() *scalars {
	cp := *s
	return &cp
}

// borrow is not a Clone method: handing out views is its documented job.
func (l *layer) borrow() (w []float32) {
	w = l.Weights
	return w
}

var _ = []any{(*layer).Clone, (*layer).CloneLayer, (*layer).clone, (*scalars).Clone, (*layer).borrow, (*conv).Clone,
	(*norm).Clone, (*norm).CloneLayer, (*model).Clone, (*model).CloneLayer, (*model).clone, (*block).Clone, (*block).CloneLayer}
