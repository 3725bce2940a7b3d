// Package nn stubs the Param type for the clonesafe golden tests (the
// analyzer matches it by package and type name): a Param clone must name
// every field, so that a flag added to Param later cannot be dropped from
// clones by omission.
package nn

// Param mirrors the real nn.Param: two buffers and the Frozen flag.
type Param struct {
	Name   string
	Data   []float32
	Grad   []float32
	Frozen bool
}

// clone is the sanctioned shape: every field named, buffers fresh.
func (p *Param) clone() *Param {
	return &Param{
		Name:   p.Name,
		Data:   append([]float32(nil), p.Data...),
		Grad:   make([]float32, len(p.Grad)),
		Frozen: p.Frozen,
	}
}

// Clone predates the Frozen flag: the replica would compute gradients the
// original skips.
func (p *Param) Clone() *Param {
	return &Param{ // want "omits Frozen"
		Name: p.Name,
		Data: append([]float32(nil), p.Data...),
		Grad: make([]float32, len(p.Grad)),
	}
}

type layer struct{ Weight *Param }

// CloneLayer builds the Param inline and forgets the flag; a literal
// outside a Clone method (newParam below) is construction, not cloning.
func (l *layer) CloneLayer() *layer {
	return &layer{Weight: &Param{ // want "omits Frozen"
		Name: l.Weight.Name,
		Data: append([]float32(nil), l.Weight.Data...),
		Grad: make([]float32, len(l.Weight.Grad)),
	}}
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float32, n), Grad: make([]float32, n)}
}

var _ = []any{(*Param).clone, (*Param).Clone, (*layer).CloneLayer, newParam}
