package tensor

import "math"

// Per-channel elementwise kernels: the memory-bound half of a forward or
// backward pass (batch-norm statistics, the normalize epilogue with its
// optional residual add and rectifier, and the matching gradient pair).
// Each call takes one channel of an NCHW tensor — its N planes, placed by
// a Planes — so the caller decides the partition (internal/nn: one channel
// per parallel task) and these kernels decide only the per-element
// arithmetic and the shape of the reductions. The maps may write over
// their input (y = x, dx = dy): each element is read before its result is
// written, and nothing else of the channel is read after.
//
// The rectifier's backward gate. The gradient pair recomputes the value a
// forward rectified, z = γ·x̂ + β, from the layer input in the forward's
// own rounding, so a batch norm's backward reads dy and x and no saved
// output. Only the gate behind a residual add (RectGradPlanes), whose z
// the residual moved, reads the output it gates by.
//
// Reduction shape. The sums are float64 and run in StatLanes independent
// lanes: element i of a plane is added to lane i mod StatLanes, in
// ascending i, plane after plane, and the lanes are carried across the
// planes of a channel (and across calls, for a caller that sums one plane
// at a time) and folded once with MergeLanes. Lane count, element-to-lane
// map and merge order are constants of this file — not of the worker
// count, the pool width, the vector width, the plane length, the conv
// dispatch switches or tracing — so a statistic is a function of the data
// alone.
//
// Every kernel has a generic Go twin (simd_generic.go) and vector routines
// (simd_amd64.s) that agree with it bit for bit: same lanes, same order,
// one rounding per operation, no fused multiply-add on either side. The
// AVX-512 routines take a whole channel in one call, the remainder of each
// plane under a mask; the AVX2 routines take a whole channel when its
// planes are whole vectors, and the generic twins take it otherwise, one
// plane at a time. StatLanes = 16 float64 is two zmm or four ymm, so both
// widths keep the one lane map.

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

// Mode bits of the kernels below. The forward map always applies its
// Affine and reads no opAffine bit.
const (
	opAffine   = 1 << iota // backward: apply the batch-norm arithmetic
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

// Planes places one channel of an NCHW tensor in a slice: N planes of Len
// elements, the first at the slice's start and each Stride elements after
// the one before (C·H·W for a channel of an N×C×H×W tensor). Every operand
// of a call shares the one placement.
type Planes struct{ N, Len, Stride int }

func (p Planes) empty() bool { return p.N <= 0 || p.Len <= 0 }

// check panics unless the planes lie inside an operand of n elements: the
// extent the vector routines, which check no lengths, may touch.
func (p Planes) check(n int) { checkRows(n, p.Stride, p.N, p.Len) }

// at returns plane k of s, or nil for the nil slice an absent operand is.
func (p Planes) at(s []float32, k int) []float32 {
	if s == nil {
		return nil
	}
	return s[k*p.Stride:][:p.Len]
}

// checkRows panics unless rows ≥ 1 rows of span elements, stride apart,
// fit in an operand of n elements.
func checkRows(n, stride, rows, span int) {
	if stride < 0 || (rows-1)*stride+span > n {
		panic("tensor: row block outside its operand")
	}
}

// AddPlanes adds x to y over the planes: y = y + x, one float32 rounding
// per element (the axpy kernel at a = 1, whose fused multiply-add by 1 is
// that one rounded add on every path). A layer adds a block's residual
// with it to what it just wrote, while that is still in cache: a
// convolution one image at a time, a batch norm's backward one channel at
// a time.
func AddPlanes(y, x []float32, p Planes) {
	if p.empty() {
		return
	}
	p.check(len(y))
	p.check(len(x))
	for k := 0; k < p.N; k++ {
		axpy(1, p.at(x, k), p.at(y, k))
	}
}

// SumPlanes adds the elements of the planes of x, widened to float64, into
// acc.
func SumPlanes(acc *[StatLanes]float64, x []float32, p Planes) { sumPlanes(acc, x, p) }

// SumSqDevPlanes adds float64(x[i]−mean)², the difference taken in
// float32, over the planes of x into acc.
func SumSqDevPlanes(acc *[StatLanes]float64, x []float32, p Planes, mean float32) {
	sumSqDevPlanes(acc, x, p, mean)
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

// NormalizePlanes writes y = rect(a(x) + res) over the planes: the affine
// map, then the residual when res is non-nil, then the rectifier — always
// in that order, each step one float32 rounding. y may be x: each element
// is read once, before its result is written.
func NormalizePlanes(y, x, res []float32, p Planes, a Affine, rect Rect) {
	mode := rect.mode()
	if res != nil {
		mode |= opResidual
	}
	normalizePlanes(y, x, res, p, a.Mean, a.InvStd, a.Gamma, a.Beta, rect.hi(), mode)
}

// GradSumsPlanes adds Σdy and Σdy·x̂ over the planes into the two lane
// sets, with x̂ = (x−Mean)·InvStd recomputed from the layer input. With a
// rectifier, dy counts only where the value the forward rectified passed
// it (0 < z, and z < Cap when capped) and as +0 elsewhere: z = Gamma·x̂ +
// Beta is recomputed from x in the forward's own rounding, so the gate
// needs no saved output. It is the gate of a forward that added no
// residual; after one that did, gate the gradient with RectGradPlanes
// first and pass no rectifier here.
func GradSumsPlanes(sumDy, sumDyXhat *[StatLanes]float64, dy, x []float32, p Planes, a Affine, rect Rect) {
	gradSumsPlanes(sumDy, sumDyXhat, dy, x, p, a.Mean, a.InvStd, a.Gamma, a.Beta, rect.hi(), rect.mode())
}

// BNGrad holds one channel's constants for GradInputPlanes: the forward's
// normalize constants (which the rectifier's gate is recomputed from),
// Scale = γ·σ⁻¹, and — when the statistics depended on the input (Vary) —
// the batch means of dy and dy·x̂.
type BNGrad struct {
	Affine
	Scale              float32
	MeanDy, MeanDyXhat float32
	Vary               bool
}

// GradInputPlanes writes the input gradient of NormalizePlanes' affine and
// rectifier steps over the planes: dy gated by the rectifier as in
// GradSumsPlanes, then dx = Scale·(dy − MeanDy − x̂·MeanDyXhat) (Vary) or
// Scale·dy. x is read for the gate and for Vary. dx may be dy.
func GradInputPlanes(dx, dy, x []float32, p Planes, g BNGrad, rect Rect) {
	mode := opAffine | rect.mode()
	if g.Vary {
		mode |= opVary
	}
	gradInputPlanes(dx, dy, x, p, g.Mean, g.InvStd, g.Gamma, g.Beta, g.Scale, g.MeanDy, g.MeanDyXhat, rect.hi(), mode)
}

// RectGradPlanes is the rectifier's backward read from the saved output:
// dx is dy where out passed the rectifier and +0 elsewhere. A batch norm
// that added a residual before its rectifier gates the gradient with it,
// since the residual moved the z the gradient pair would recompute. dx may
// be dy.
func RectGradPlanes(dx, dy, out []float32, p Planes, rect Rect) {
	gradInputPlanes(dx, dy, out, p, 0, 0, 0, 0, 0, 0, 0, rect.hi(), rect.mode())
}
