// Package markupdated exercises the markupdated analyzer: every in-place
// write to an nn.Param's Data must be followed by MarkUpdated() on the
// same receiver, with an exemption for Params constructed in the same
// function.
package markupdated

import (
	"edgetta/internal/lint/testdata/src/markupdated/nn"
	"edgetta/internal/lint/testdata/src/markupdated/tensor"
)

type layer struct {
	Weight *nn.Param
	Bias   *nn.Param

	rot, stale *tensor.RotatedWeights
}

// forgotten writes and never marks.
func forgotten(l *layer) {
	l.Weight.Data[0] = 1 // want "not followed by"
}

// marked is the contract-conforming shape.
func marked(l *layer) {
	l.Weight.Data[0] = 1
	l.Weight.MarkUpdated()
}

// wrongReceiver marks a different Param than the one written.
func wrongReceiver(l *layer) {
	l.Weight.Data[0] = 1 // want "not followed by"
	l.Bias.MarkUpdated()
}

// markedTooEarly marks before the write, so the version predates the data.
func markedTooEarly(p *nn.Param) {
	p.MarkUpdated()
	p.Data[0] = 3 // want "not followed by"
}

// scale writes every element, then marks once.
func scale(p *nn.Param, f float32) {
	for i := range p.Data {
		p.Data[i] *= f
	}
	p.MarkUpdated()
}

// load writes through the copy builtin.
func load(p *nn.Param, src []float32) {
	copy(p.Data, src) // want "not followed by"
}

// loadMarked is the same write, marked.
func loadMarked(p *nn.Param, src []float32) {
	copy(p.Data, src)
	p.MarkUpdated()
}

// reset writes through the clear builtin.
func reset(p *nn.Param) {
	clear(p.Data) // want "not followed by"
}

// bump mutates through an inc/dec statement.
func bump(p *nn.Param) {
	p.Data[3]++ // want "not followed by"
}

// rebind swaps the slice header itself, which equally invalidates any
// derived cache.
func rebind(p *nn.Param, n int) {
	p.Data = make([]float32, n) // want "not followed by"
}

// segment is one run of an adapter's state vector and the Param it was
// captured from: the layout holds the Param, not an alias of its Data, so
// a restore is a write the analyzer can see.
type segment struct {
	param *nn.Param
}

// restoreUnmarked copies a state vector back into γ/β and never bumps
// their versions.
func restoreUnmarked(segs []segment, vec []float32) {
	for _, s := range segs {
		vec = vec[copy(s.param.Data, vec):] // want "not followed by"
	}
}

// restoreMarked is the same restore, marked per Param.
func restoreMarked(segs []segment, vec []float32) {
	for _, s := range segs {
		vec = vec[copy(s.param.Data, vec):]
		s.param.MarkUpdated()
	}
}

// kaimingConv matches the analyzer's known-mutator table by name: it
// writes in place through its second argument.
func kaimingConv(fanIn int, w []float32) {
	for i := range w {
		w[i] = float32(fanIn)
	}
}

// initWeights hands Data to a known mutator and never marks.
func initWeights(p *nn.Param) {
	kaimingConv(9, p.Data) // want "not followed by"
}

// initWeightsMarked hands Data to a known mutator, then marks.
func initWeightsMarked(p *nn.Param) {
	kaimingConv(9, p.Data)
	p.MarkUpdated()
}

// construct writes into a Param built in this function: nothing can hold a
// cache derived from a value that has never escaped, so no mark is needed.
func construct() *nn.Param {
	p := &nn.Param{Data: make([]float32, 4)}
	p.Data[0] = 1
	return p
}

// rotated is the version-keyed cache done right: reuse while the version
// matches, stamp the rebuilt copy with the version it came from.
func (l *layer) rotated() *tensor.RotatedWeights {
	if r := l.rot; r != nil && r.Version == l.Weight.Version() {
		return r
	}
	r := tensor.NewRotatedWeights(l.Weight.Data, 8, 8, 3)
	r.Version = l.Weight.Version()
	l.rot = r
	return r
}

// rotatedOnce caches the copy and never looks at the version: after an
// optimizer step, backward would run on the old weights.
func (l *layer) rotatedOnce() *tensor.RotatedWeights {
	if l.stale == nil {
		l.stale = tensor.NewRotatedWeights(l.Weight.Data, 8, 8, 3) // want "without reading l.Weight.Version"
	}
	return l.stale
}

// wrongVersion keys the copy on a different Param than the one it rotates.
func (l *layer) wrongVersion() *tensor.RotatedWeights {
	r := tensor.NewRotatedWeights(l.Weight.Data, 8, 8, 3) // want "without reading l.Weight.Version"
	r.Version = l.Bias.Version()
	return r
}
