package opt

import (
	"math"
	"testing"

	"edgetta/internal/nn"
)

// quadratic builds a parameter whose loss is 0.5*(x-target)² so gradient
// descent has a known fixed point.
func quadParam(n int, init float32) *nn.Param {
	p := &nn.Param{Name: "p", Data: make([]float32, n), Grad: make([]float32, n)}
	for i := range p.Data {
		p.Data[i] = init
	}
	return p
}

func fillQuadGrad(p *nn.Param, target float32) {
	for i := range p.Data {
		p.Grad[i] = p.Data[i] - target
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := quadParam(4, 5)
	a := NewAdam([]*nn.Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		a.ZeroGrad()
		fillQuadGrad(p, 2)
		a.Step()
	}
	for i, v := range p.Data {
		if math.Abs(float64(v)-2) > 1e-2 {
			t.Fatalf("adam did not converge: p[%d] = %v", i, v)
		}
	}
}

func TestAdamFirstStepMagnitude(t *testing.T) {
	// With bias correction the very first Adam step is ~lr in magnitude
	// regardless of gradient scale.
	for _, g := range []float32{0.001, 1, 1000} {
		p := quadParam(1, 0)
		a := NewAdam([]*nn.Param{p}, 0.05)
		p.Grad[0] = g
		a.Step()
		if math.Abs(math.Abs(float64(p.Data[0]))-0.05) > 5e-3 {
			t.Fatalf("grad %v: first step %v, want ~0.05", g, p.Data[0])
		}
	}
}

func TestZeroGradClears(t *testing.T) {
	p := quadParam(3, 1)
	p.Grad[0], p.Grad[1], p.Grad[2] = 1, 2, 3
	a := NewAdam([]*nn.Param{p}, 0.1)
	a.ZeroGrad()
	for i, g := range p.Grad {
		if g != 0 {
			t.Fatalf("grad[%d] = %v after ZeroGrad", i, g)
		}
	}
}

func TestAdamStateIsPerParameter(t *testing.T) {
	// Two parameters with very different gradient scales must still each
	// converge — the second moment is tracked per element.
	p := quadParam(2, 0)
	a := NewAdam([]*nn.Param{p}, 0.05)
	for i := 0; i < 800; i++ {
		a.ZeroGrad()
		p.Grad[0] = 100 * (p.Data[0] - 1)
		p.Grad[1] = 0.01 * (p.Data[1] + 1)
		a.Step()
	}
	if math.Abs(float64(p.Data[0])-1) > 5e-2 || math.Abs(float64(p.Data[1])+1) > 5e-2 {
		t.Fatalf("per-param adaptation failed: %v", p.Data)
	}
}

func TestAdamCaptureRestoreRoundTrip(t *testing.T) {
	// Two streams multiplexed over one optimizer via capture/restore must
	// evolve exactly as two private optimizers — the serving contract.
	step := func(a *Adam, p *nn.Param, g float32) {
		a.ZeroGrad()
		p.Grad[0] = g
		a.Step()
	}

	// Reference: two private (param, optimizer) pairs.
	pA, pB := quadParam(1, 2), quadParam(1, 2)
	oA, oB := NewAdam([]*nn.Param{pA}, 0.1), NewAdam([]*nn.Param{pB}, 0.1)
	gradsA := []float32{1, -0.5, 2}
	gradsB := []float32{-2, 0.25, 1}
	for i := range gradsA {
		step(oA, pA, gradsA[i])
		step(oB, pB, gradsB[i])
	}

	// Shared: one optimizer, states swapped between "streams". The param
	// value is part of each stream's state here, saved alongside.
	p := quadParam(1, 2)
	o := NewAdam([]*nn.Param{p}, 0.1)
	stA, stB := o.AppendState(nil), o.AppendState(nil)
	valA, valB := p.Data[0], p.Data[0]
	for i := range gradsA {
		o.LoadState(stA)
		p.Data[0] = valA
		step(o, p, gradsA[i])
		stA, valA = o.AppendState(nil), p.Data[0]

		o.LoadState(stB)
		p.Data[0] = valB
		step(o, p, gradsB[i])
		stB, valB = o.AppendState(nil), p.Data[0]
	}
	if valA != pA.Data[0] || valB != pB.Data[0] {
		t.Fatalf("multiplexed Adam diverged: stream A %v vs %v, stream B %v vs %v",
			valA, pA.Data[0], valB, pB.Data[0])
	}

	// The appended state is a copy (m, v, step count): stepping afterwards
	// must not reach it.
	snap := o.AppendState(nil)
	if len(snap) != o.StateLen() || len(snap) != 3 {
		t.Fatalf("state of one scalar parameter is %d values, StateLen %d, want 3", len(snap), o.StateLen())
	}
	m0 := snap[0]
	step(o, p, 3)
	if snap[0] != m0 {
		t.Fatalf("AppendState aliases live moments")
	}

	// A state of any other length is refused before anything is written.
	before := o.AppendState(nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("LoadState accepted a short state")
			}
		}()
		o.LoadState(snap[:2])
	}()
	for i, v := range o.AppendState(nil) {
		if math.Float32bits(v) != math.Float32bits(before[i]) {
			t.Fatalf("refused LoadState still wrote value %d", i)
		}
	}
}
