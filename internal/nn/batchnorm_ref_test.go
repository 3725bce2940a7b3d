package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/tensor"
)

// The float64 reference for BatchNorm2d and the error model its tolerances
// come from. The layer's arithmetic, per channel of m = N·H·W values:
//
//   - a statistic is a sum whose elements are added, at worst, in 64-element
//     blocks of float32 two additions deep, then in float64 lanes (at most
//     m/16 + 1 additions each, four pairwise merges, one division), then
//     rounded once to float32. So a sum of terms t is within
//     (γ₂ + γ⁶⁴_{2m})·Σ|t| of its exact value, γₖ = k·u/(1−k·u) with u =
//     2⁻²⁴, γ⁶⁴ the same at 2⁻⁵³ (2m covers the float64 reference's own
//     serial sums too), before the float32 rounding.
//   - a squared deviation is (x − μ̂)² of the float32 difference, squared in
//     float32 inside a block: (1+u)³ on top of the two block additions, γ₅
//     in all; a product dy·x̂ in a block is one more rounding, γ₃.
//   - every other step (the running update, the normalize, the input
//     gradient's map) is a float32 operation rounded once, propagated below
//     by bnd to first order plus the product of the errors.
//
// Nothing is tuned: each bound is that model evaluated on the data. A
// rectifier is 1-Lipschitz, so it carries an error through unchanged; its
// backward gate is a step, so an element whose reference pre-rectifier
// value lies within its error bound of a kink may be gated either way, and
// the bounds count its gradient as either.

const refU = 0x1p-24 // float32's unit roundoff

func gammaK(k float64) float64  { return k * refU / (1 - k*refU) }
func gamma64(k float64) float64 { return k * 0x1p-53 / (1 - k*0x1p-53) }

// bnd is a reference value v and a bound e on how far the layer's float32
// result of the same operation can lie from it. Its operations compute v
// in float64 from the reference operands, so a chain of them evaluates the
// definition, and e grows by the operand errors and one float32 rounding.
type bnd struct{ v, e float64 }

// rounded adds one float32 rounding of a result within e of v.
func (a bnd) rounded() bnd { return bnd{a.v, a.e + refU*(math.Abs(a.v)+a.e)} }

func (a bnd) add(b bnd) bnd { return bnd{a.v + b.v, a.e + b.e}.rounded() }
func (a bnd) sub(b bnd) bnd { return bnd{a.v - b.v, a.e + b.e}.rounded() }
func (a bnd) mul(b bnd) bnd {
	return bnd{a.v * b.v, math.Abs(a.v)*b.e + math.Abs(b.v)*a.e + a.e*b.e}.rounded()
}

func exact(v float32) bnd { return bnd{float64(v), 0} }

// sumBound is the bound of a statistic over m elements whose terms'
// magnitudes sum to abs, each term rounded k times before the two block
// additions.
func sumBound(abs float64, m, k int) float64 {
	return (gammaK(float64(k+2)) + gamma64(2*float64(m))) * abs
}

// bnRef is the float64 definition of one channel of a batch-mode BatchNorm2d
// forward and backward, with the bound of every quantity.
type bnRef struct {
	mean, invStd, runMean, runVar bnd
	y, dx                         []bnd
	dGamma, dBeta                 bnd
}

// refChannel evaluates the definitions on channel values xs (with res, the
// residual, or nil), incoming gradient dys, running statistics rm, rv and
// the layer's constants.
func refChannel(xs, res, dys []float32, rm, rv float32, b *BatchNorm2d, gamma, beta float32) bnRef {
	m := len(xs)
	fm := float64(m)
	var r bnRef

	sum, abs := 0.0, 0.0
	for _, v := range xs {
		sum += float64(v)
		abs += math.Abs(float64(v))
	}
	mu := sum / fm
	r.mean = bnd{mu, sumBound(abs, m, 0) / fm}.rounded()
	dmu := r.mean.e

	s := 0.0
	for _, v := range xs {
		s += (float64(v) - mu) * (float64(v) - mu)
	}
	// Σ(x−μ̂)² = S + m(μ−μ̂)², then the rounding of each squared deviation
	// and of the sums.
	wide := s + fm*dmu*dmu
	dS := fm*dmu*dmu + (gammaK(5)+gamma64(2*fm))*wide
	variance := bnd{s / fm, dS / fm}.rounded()
	eps := float64(b.Eps)
	inv := 1 / math.Sqrt(variance.v+eps)
	lo, hi := 1/math.Sqrt(variance.v+variance.e+eps), 1/math.Sqrt(math.Max(variance.v-variance.e, 0)+eps)
	r.invStd = bnd{inv, math.Max(inv-lo, hi-inv) + 2*gamma64(2)*hi}.rounded()

	// PyTorch: r ← (1−momentum)·r + momentum·stat, with the unbiased
	// variance. The layer computes r + momentum·(stat − r) in float32.
	mom := float64(b.Momentum)
	unbiased := bnd{s / (fm - 1), dS / (fm - 1)}.rounded()
	running := func(old float32, stat bnd) bnd {
		got := exact(old).add(exact(b.Momentum).mul(stat.sub(exact(old))))
		return bnd{(1-mom)*float64(old) + mom*stat.v, got.e}
	}
	r.runMean, r.runVar = running(rm, r.mean), running(rv, unbiased)

	// The normalize: x̂ = (x−μ̂)·σ̂⁻¹, z = γ·x̂ + β, w = z + res, y = rect(w).
	act, capv := b.act, float64(b.act.Cap)
	rect := func(v float64) float64 {
		if !act.On {
			return v
		}
		v = math.Max(v, 0)
		if capv > 0 {
			v = math.Min(v, capv)
		}
		return v
	}
	xh := make([]bnd, m)
	w := make([]bnd, m)
	r.y = make([]bnd, m)
	for i, v := range xs {
		xh[i] = exact(v).sub(r.mean).mul(r.invStd)
		w[i] = exact(gamma).mul(xh[i]).add(exact(beta))
		if res != nil {
			w[i] = w[i].add(exact(res[i]))
		}
		r.y[i] = bnd{rect(w[i].v), w[i].e}
	}

	// The backward: g = dy where the rectifier passed w, dβ = Σg, dγ =
	// Σg·x̂, dx = γσ⁻¹·(g − mean g − x̂·mean g·x̂).
	g := make([]bnd, m)
	var sDy, sDyXh bnd
	absDy, absDyXh := 0.0, 0.0
	for i, d := range dys {
		pass, unsure := true, false
		if act.On {
			pass = w[i].v > 0 && (capv == 0 || w[i].v < capv)
			unsure = math.Abs(w[i].v) <= w[i].e || capv > 0 && math.Abs(w[i].v-capv) <= w[i].e
		}
		gv := 0.0
		if pass {
			gv = float64(d)
		}
		g[i] = bnd{gv, 0}
		if unsure {
			g[i].e = math.Abs(float64(d))
		}
		sDy.v += gv
		sDy.e += g[i].e
		sDyXh.v += gv * xh[i].v
		// x̂ as the layer recomputes it is within xh[i].e of the reference.
		sDyXh.e += g[i].e*(math.Abs(xh[i].v)+xh[i].e) + math.Abs(gv)*xh[i].e
		absDy += math.Abs(gv) + g[i].e
		absDyXh += (math.Abs(gv) + g[i].e) * (math.Abs(xh[i].v) + xh[i].e)
	}
	sDy.e += sumBound(absDy, m, 0)
	sDyXh.e += sumBound(absDyXh, m, 1)
	r.dBeta, r.dGamma = sDy.rounded(), sDyXh.rounded()

	cnt := exact(float32(m))
	div := func(a bnd) bnd { return bnd{a.v / cnt.v, a.e / cnt.v}.rounded() }
	mDy, mDyXh := div(r.dBeta), div(r.dGamma)
	scale := exact(gamma).mul(r.invStd)
	r.dx = make([]bnd, m)
	for i := range dys {
		r.dx[i] = scale.mul(g[i].sub(mDy).sub(xh[i].mul(mDyXh)))
	}
	return r
}

// refErr records the worst error of one quantity, absolute and relative to
// its bound.
type refErr struct {
	abs, ratio float64
	n          int
}

func (e *refErr) see(got float32, want bnd) bool {
	d := math.Abs(float64(got) - want.v)
	e.abs = math.Max(e.abs, d)
	if want.e > 0 {
		e.ratio = math.Max(e.ratio, d/want.e)
	}
	e.n++
	return d <= want.e
}

// TestBatchNormMatchesFloat64Reference holds a batch-mode BatchNorm2d —
// batch mean and biased variance, the running update with PyTorch's
// momentum and unbiased variance, the normalize without and with a
// rectifier and a residual, and the backward's dx, dγ and dβ — to the
// float64 definitions, within the error model's bounds. Plane lengths cover
// no 64-element block, blocks with a remainder, and whole blocks; it logs
// each quantity's worst absolute error and worst error over bound.
func TestBatchNormMatchesFloat64Reference(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	names := []string{"mean", "1/σ (biased)", "running mean", "running var", "y", "dβ", "dγ", "dx"}
	errs := make([]refErr, len(names))
	for _, sh := range [][4]int{{4, 3, 3, 3}, {2, 2, 8, 8}, {3, 2, 7, 9}, {2, 2, 7, 12}, {5, 2, 32, 32}, {1, 2, 5, 13}} {
		n, c, h, w := sh[0], sh[1], sh[2], sh[3]
		for _, act := range []tensor.Rect{{}, relu, relu6} {
			for _, withRes := range []bool{false, true} {
				what := fmt.Sprintf("%v rect %+v residual %v", sh, act, withRes)
				bn := NewBatchNorm2d("bn", c, act)
				x := tensor.New(n, c, h, w)
				x.Randn(rng, 2)
				for i := range x.Data {
					x.Data[i] += 3 // a mean the statistics must remove
				}
				var res *tensor.Tensor
				if withRes {
					res = tensor.New(n, c, h, w)
					res.Randn(rng, 1)
				}
				grad := tensor.New(n, c, h, w)
				grad.Randn(rng, 1)
				rm, rv := make([]float32, c), make([]float32, c)
				for ch := 0; ch < c; ch++ {
					bn.Gamma.Data[ch] = float32(0.5 + rng.Float64())
					bn.Beta.Data[ch] = float32(rng.NormFloat64())
					rm[ch], rv[ch] = float32(rng.NormFloat64()), float32(0.5+rng.Float64())
				}
				copy(bn.RunningMean, rm)
				copy(bn.RunningVar, rv)
				xs := append([]float32(nil), x.Data...)
				y := bn.ForwardFused(x, res, true)
				bn.Gamma.ZeroGrad()
				bn.Beta.ZeroGrad()
				dx, _ := bn.BackwardFused(grad, nil)

				plane := h * w
				channel := func(s []float32, ch int) []float32 {
					if s == nil {
						return nil
					}
					out := make([]float32, 0, n*plane)
					for img := 0; img < n; img++ {
						out = append(out, s[(img*c+ch)*plane:][:plane]...)
					}
					return out
				}
				var resData []float32
				if res != nil {
					resData = res.Data
				}
				for ch := 0; ch < c; ch++ {
					ref := refChannel(channel(xs, ch), channel(resData, ch), channel(grad.Data, ch), rm[ch], rv[ch], bn, bn.Gamma.Data[ch], bn.Beta.Data[ch])
					check := func(q int, got float32, want bnd, at int) {
						if !errs[q].see(got, want) {
							t.Errorf("%s channel %d: %s[%d] = %v, reference %v, off by %g beyond its bound %g",
								what, ch, names[q], at, got, want.v, math.Abs(float64(got)-want.v), want.e)
						}
					}
					check(0, bn.mean[ch], ref.mean, 0)
					check(1, bn.invStd[ch], ref.invStd, 0)
					check(2, bn.RunningMean[ch], ref.runMean, 0)
					check(3, bn.RunningVar[ch], ref.runVar, 0)
					for i, v := range channel(y.Data, ch) {
						check(4, v, ref.y[i], i)
					}
					check(5, bn.Beta.Grad[ch], ref.dBeta, 0)
					check(6, bn.Gamma.Grad[ch], ref.dGamma, 0)
					for i, v := range channel(dx.Data, ch) {
						check(7, v, ref.dx[i], i)
					}
				}
			}
		}
	}
	for q, e := range errs {
		t.Logf("%-13s worst |error| %.3g, worst error/bound %.3g over %d values", names[q], e.abs, e.ratio, e.n)
	}
}
