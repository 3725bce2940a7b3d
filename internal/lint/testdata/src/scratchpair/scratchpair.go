// Package scratchpair exercises the scratch-pool pairing analyzer: every
// tensor.GetScratch must reach tensor.PutScratch on all paths of the
// acquiring function scope, normalized on the defer idiom.
package scratchpair

import "edgetta/internal/lint/testdata/src/scratchpair/tensor"

// deferIdiom is the sanctioned shape.
func deferIdiom(n int) float32 {
	buf := tensor.GetScratch(n)
	defer tensor.PutScratch(buf)
	buf[0] = 1
	return buf[0]
}

// twoBuffers pairs each acquisition with its own defer.
func twoBuffers(n int) float32 {
	a := tensor.GetScratch(n)
	defer tensor.PutScratch(a)
	b := tensor.GetScratch(n)
	defer tensor.PutScratch(b)
	a[0], b[0] = 1, 2
	return a[0] + b[0]
}

// manualPut is accepted: the release is in the same scope with no return
// between acquisition and release.
func manualPut(n int) float32 {
	buf := tensor.GetScratch(n)
	buf[0] = 2
	v := buf[0]
	tensor.PutScratch(buf)
	return v
}

// leak never releases.
func leak(n int) float32 {
	buf := tensor.GetScratch(n) // want "never reaches"
	buf[0] = 3
	return buf[0]
}

// earlyReturn leaks on the early path, which the defer idiom would cover.
func earlyReturn(n int, cond bool) []float32 {
	buf := tensor.GetScratch(n) // want "a return between"
	if cond {
		return nil
	}
	out := make([]float32, n)
	copy(out, buf)
	tensor.PutScratch(buf)
	return out
}

// doublePut releases twice: once deferred, once manually.
func doublePut(n int) {
	buf := tensor.GetScratch(n)
	defer tensor.PutScratch(buf)
	buf[0] = 4
	tensor.PutScratch(buf) // want "double put"
}

// doubleDefer queues two releases of the same buffer.
func doubleDefer(n int) {
	buf := tensor.GetScratch(n)
	defer tensor.PutScratch(buf)
	defer tensor.PutScratch(buf) // want "double put"
	buf[0] = 5
}

// unbound drops the buffer on the floor.
func unbound(n int) {
	tensor.GetScratch(n) // want "must be bound"
}

// blankBound discards the result explicitly, which is equally untrackable.
func blankBound(n int) {
	_ = tensor.GetScratch(n) // want "must be bound"
}

// putForeign releases a buffer this scope never acquired.
func putForeign(buf []float32) {
	tensor.PutScratch(buf) // want "not acquired in this function scope"
}

// closurePut splits the pair across function scopes: defer and return bind
// per function, so the outer scope leaks and the closure releases what it
// never acquired.
func closurePut(n int) {
	buf := tensor.GetScratch(n) // want "never reaches"
	f := func() {
		tensor.PutScratch(buf) // want "not acquired in this function scope"
	}
	f()
}

// deferExprArg acquires into a container and defers a release whose
// argument is not the bound variable; neither side is trackable.
func deferExprArg(n int) {
	bufs := [][]float32{tensor.GetScratch(n)} // want "must be bound"
	defer tensor.PutScratch(bufs[0])          // want "must be the variable"
}
