// Package opt implements Adam, the one optimizer the study needs: BN-Opt's
// single adaptation step (following the paper and TENT) and the offline
// robust training of the repro-scale models both use it. Adam's mutable
// state — moments and step count — travels as a run of float32 values
// (AppendState, LoadState) at the end of an adapter's state vector; the
// optimizer has no snapshot type of its own.
package opt

import (
	"fmt"
	"math"

	"edgetta/internal/nn"
)

// Adam implements Kingma & Ba's Adam with PyTorch-default hyperparameters.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64

	params []*nn.Param
	m, v   [][]float32
	t      int
}

// NewAdam constructs Adam over params with the given learning rate and
// defaults beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(params []*nn.Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([][]float32, len(params))
	a.v = make([][]float32, len(params))
	for i, p := range params {
		a.m[i] = make([]float32, len(p.Data))
		a.v[i] = make([]float32, len(p.Data))
	}
	return a
}

// Params returns the parameter set.
func (a *Adam) Params() []*nn.Param { return a.params }

// ZeroGrad clears all gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Step applies one Adam update.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := float64(p.Grad[j])
			if a.WeightDecay != 0 {
				g += a.WeightDecay * float64(p.Data[j])
			}
			mj := a.Beta1*float64(m[j]) + (1-a.Beta1)*g
			vj := a.Beta2*float64(v[j]) + (1-a.Beta2)*g*g
			m[j], v[j] = float32(mj), float32(vj)
			p.Data[j] -= float32(a.LR * (mj / bc1) / (math.Sqrt(vj/bc2) + a.Eps))
		}
	}
}

// StateLen is the length of the optimizer's mutable state as float32
// values: both moment estimates of every parameter plus the step count.
func (a *Adam) StateLen() int {
	n := 1
	for _, m := range a.m {
		n += 2 * len(m)
	}
	return n
}

// AppendState appends the optimizer's mutable state to dst: per parameter
// the first then the second moment estimate, and last the step count,
// carried as its uint32 bit pattern (float32(t) would round above 2^24
// steps). An adapter's state vector ends in these StateLen values.
func (a *Adam) AppendState(dst []float32) []float32 {
	for i := range a.m {
		dst = append(dst, a.m[i]...)
		dst = append(dst, a.v[i]...)
	}
	return append(dst, math.Float32frombits(uint32(a.t)))
}

// LoadState installs a state written by AppendState on an Adam over the
// same parameter shapes (e.g. a replica of the same model). It panics, with
// nothing written, when src is not StateLen values long.
func (a *Adam) LoadState(src []float32) {
	if len(src) != a.StateLen() {
		panic(fmt.Sprintf("opt: Adam state has %d values, want %d", len(src), a.StateLen()))
	}
	for i := range a.m {
		src = src[copy(a.m[i], src):]
		src = src[copy(a.v[i], src):]
	}
	a.t = int(math.Float32bits(src[0]))
}
