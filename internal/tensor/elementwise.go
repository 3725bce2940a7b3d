package tensor

import "math"

// Per-plane elementwise kernels: the memory-bound half of a forward or
// backward pass (batch-norm statistics, the normalize epilogue with its
// optional residual add and rectifier, and the matching gradient pair).
// Each works on one contiguous channel plane of an NCHW tensor, so the
// caller decides the partition (internal/nn: one channel per parallel
// task) and these kernels decide only the per-element arithmetic and the
// shape of the reductions.
//
// Reduction shape. The sums are float64 and run in StatLanes independent
// lanes: element i of a plane is added to lane i mod StatLanes, in
// ascending i; the caller carries the lanes across the planes of a channel
// and folds them once with MergeLanes. Lane count, element-to-lane map and
// merge order are constants of this file — not of the worker count, the
// pool width, the conv dispatch switches or tracing — so a statistic is a
// function of the data alone.
//
// Every kernel has an AVX2 routine (simd_amd64.s) and a generic Go twin
// (simd_generic.go) that agree bit for bit: same lanes, same order, one
// rounding per operation, no fused multiply-add on either side. The AVX2
// routines take whole vectors only; the dispatchers below hand any
// remainder to the generic twin, which is the same function of the same
// elements.

// StatLanes is the number of float64 partial sums a plane reduction keeps.
const StatLanes = 16

// Rect is the rectifier at the end of an elementwise pass: none (the zero
// value), max(0, v), or with a positive Cap a clamp to [0, Cap]. NaN
// rectifies to 0 and −0 to +0.
type Rect struct {
	On  bool
	Cap float32 // 0 means uncapped
}

// Affine holds one channel's normalize constants:
// y = Gamma·((x−Mean)·InvStd) + Beta.
type Affine struct {
	Mean, InvStd, Gamma, Beta float32
}

// Mode bits of the kernels below.
const (
	opAffine   = 1 << iota // apply the Affine / batch-norm arithmetic
	opResidual             // add a residual plane after the affine map
	opRect                 // rectify last (forward) / gate the gradient (backward)
	opVary                 // backward: the statistics depended on the input
)

// hi is the kernels' encoding of a Rect's upper bound: the cap, or NaN for
// none. Every comparison against it is written so that NaN means "never
// clamps": hi < v and hi <= y are both false.
func (r Rect) hi() float32 {
	if r.Cap == 0 {
		return float32(math.NaN())
	}
	return r.Cap
}

func (r Rect) mode() int {
	if r.On {
		return opRect
	}
	return 0
}

// PlaneSum adds the elements of x, widened to float64, into acc.
func PlaneSum(acc *[StatLanes]float64, x []float32) { planeSum(acc, x) }

// PlaneSumSqDev adds float64(x[i]−mean)², the difference taken in float32,
// into acc.
func PlaneSumSqDev(acc *[StatLanes]float64, x []float32, mean float32) {
	planeSumSqDev(acc, x, mean)
}

// MergeLanes folds the lanes pairwise — lane i with lane i+8, then i+4,
// i+2, i+1 — and returns the total. acc is left unspecified.
func MergeLanes(acc *[StatLanes]float64) float64 {
	for step := StatLanes / 2; step > 0; step /= 2 {
		for i := 0; i < step; i++ {
			acc[i] += acc[i+step]
		}
	}
	return acc[0]
}

// NormalizePlane writes y = rect(a(x) + res): the affine map when a is
// non-nil, then the residual when res is non-nil, then the rectifier —
// always in that order, each step one float32 rounding. y may alias x.
func NormalizePlane(y, x, res []float32, a *Affine, rect Rect) {
	if len(x) == 0 {
		return
	}
	_ = y[len(x)-1]
	mode := rect.mode()
	var k Affine
	if a != nil {
		mode |= opAffine
		k = *a
	}
	if res != nil {
		mode |= opResidual
		_ = res[len(x)-1]
	}
	normalize(y[:len(x)], x, res, k.Mean, k.InvStd, k.Gamma, k.Beta, rect.hi(), mode)
}

// GradSumsPlane adds the plane's Σdy and Σdy·x̂ into the two lane sets,
// with x̂ = (x−mean)·invStd recomputed from the layer input. With a
// rectifier, dy counts only where the saved output out passed it
// (0 < out, and out < Cap when capped) and as +0 elsewhere.
func GradSumsPlane(sumDy, sumDyXhat *[StatLanes]float64, dy, x, out []float32, mean, invStd float32, rect Rect) {
	if len(dy) == 0 {
		return
	}
	_ = x[len(dy)-1]
	if rect.On {
		_ = out[len(dy)-1]
	}
	gradSums(sumDy, sumDyXhat, dy, x, out, mean, invStd, rect.hi(), rect.mode())
}

// BNGrad holds one channel's constants for GradInputPlane: the forward
// statistics, Scale = γ·σ⁻¹, and — when the statistics depended on the
// input (Vary) — the batch means of dy and dy·x̂.
type BNGrad struct {
	Mean, InvStd, Scale float32
	MeanDy, MeanDyXhat  float32
	Vary                bool
}

// GradInputPlane writes the input gradient of NormalizePlane's affine and
// rectifier steps: dy gated by the rectifier as in GradSumsPlane, then, when
// g is non-nil, dx = Scale·(dy − MeanDy − x̂·MeanDyXhat) (Vary) or Scale·dy.
// With g nil it is the rectifier's own backward. dx may alias dy.
func GradInputPlane(dx, dy, x, out []float32, g *BNGrad, rect Rect) {
	if len(dy) == 0 {
		return
	}
	_ = dx[len(dy)-1]
	mode := rect.mode()
	if rect.On {
		_ = out[len(dy)-1]
	}
	var k BNGrad
	if g != nil {
		mode |= opAffine
		k = *g
		if k.Vary {
			mode |= opVary
			_ = x[len(dy)-1]
		}
	}
	gradInput(dx[:len(dy)], dy, x, out, k.Mean, k.InvStd, k.Scale, k.MeanDy, k.MeanDyXhat, rect.hi(), mode)
}
