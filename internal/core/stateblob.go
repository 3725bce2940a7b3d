package core

import (
	"fmt"
	"math"

	"edgetta/internal/serialize"
)

// This file presents an AdapterState as (and rebuilds it from) the named
// tensors of the serialize state container, so the serving layer can
// checkpoint a stream's adaptation state; core names the tensors and does
// no I/O. The tensor names and their order are generated by the layout, and
// every tensor is a run of the state vector carried bit for bit — Adam's
// step count rides as its raw uint32 bit pattern — so
// unflatten(flatten(s)) reproduces s byte-identically. That exactness is
// what lets a recovered stream replay to bitwise parity with an
// uninterrupted run (the serving tier's recovery contract).

// State kinds, the tag FlattenState returns and UnflattenState checks. They
// name the layout's shape: BatchNorm runs only, or BatchNorm runs followed
// by Adam's.
const (
	StateKindBN    = "bn"
	StateKindBNOpt = "bnopt"
)

// FlattenState presents a captured state as the layout's named tensors, in
// layout order, plus its kind tag. The tensors are views of the state's
// vector, not copies: read them, never write them.
func FlattenState(s *AdapterState) (kind string, tensors []serialize.Tensor, err error) {
	if s == nil {
		return "", nil, fmt.Errorf("core: no adapter state to flatten")
	}
	tensors = make([]serialize.Tensor, len(s.layout.segs))
	off := 0
	for i, seg := range s.layout.segs {
		tensors[i] = serialize.Tensor{Name: seg.name, Data: s.vec[off : off+seg.n : off+seg.n]}
		off += seg.n
	}
	return s.layout.kind, tensors, nil
}

// UnflattenState rebuilds a state from its flattened form over the layout
// of like (any state of the adapter the result is meant for — a serving
// group passes its episode-start state). It parses strictly: the kind, the
// tensor names, their order and their lengths must be exactly what
// FlattenState writes for that layout, so a truncated, reordered, foreign
// or older-format checkpoint fails loudly, naming the tensor, instead of
// silently mis-assigning layers.
func UnflattenState(like *AdapterState, kind string, tensors []serialize.Tensor) (*AdapterState, error) {
	l := like.layout
	if kind != l.kind {
		return nil, fmt.Errorf("core: state kind %q does not fit this adapter", kind)
	}
	v := make([]float32, 0, l.size)
	for i, seg := range l.segs {
		if i >= len(tensors) {
			return nil, fmt.Errorf("core: %s state ends before tensor %q", kind, seg.name)
		}
		t := tensors[i]
		if t.Name != seg.name || len(t.Data) != seg.n {
			return nil, fmt.Errorf("core: expected tensor %q of %d values, got %q of %d",
				seg.name, seg.n, t.Name, len(t.Data))
		}
		v = append(v, t.Data...)
	}
	if len(tensors) > len(l.segs) {
		return nil, fmt.Errorf("core: unexpected tensor %q after %s state", tensors[len(l.segs)].Name, kind)
	}
	return &AdapterState{l, v}, nil
}

// StateFinite reports whether every float in the state is finite — the
// numeric-health check the serving tier runs after each stateful Process.
// A NaN or Inf anywhere in the BatchNorm tensors or optimizer moments means
// adaptation diverged: normalizing with a poisoned state spreads NaNs into
// every subsequent output, so the serving tier resets the stream to its
// source snapshot instead of serving from it.
func StateFinite(s *AdapterState) bool {
	v := s.vec
	if s.layout.bnLen < s.layout.size {
		v = v[:len(v)-1] // Adam's step count is a bit pattern, not a value
	}
	for _, x := range v {
		f := float64(x)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// Poisoned returns a copy of s whose first value is NaN, as numerically
// diverged adaptation would leave it — what the serving tier's fault
// injector hands the numeric guard. s itself is not written.
func (s *AdapterState) Poisoned() *AdapterState {
	v := append([]float32(nil), s.vec...)
	v[0] = float32(math.NaN())
	return &AdapterState{s.layout, v}
}
