package tensor

import "math"

// ConvGradPlan is the input gradient of the convolution ConvShape, worked
// out once from the geometry; one plan serves every image and every worker.
//
// Split by residue modulo the stride, a transposed convolution is at most
// min(K, Stride)² stride-1 convolutions (the polyphase view; Dumoulin &
// Visin, "A guide to convolution arithmetic", 2016): along one axis, input
// position j·Stride+t−Pad receives Σ_oc Σ_m w[oc][t+m·Stride]·dY[oc][j−m],
// a stride-1 convolution of dY with residue t's taps reversed. Each residue
// runs on an ordinary ConvPlan — the forward's kernel — whose off table
// reads one staged copy of dY at the residue's crop origin: no zero is
// inserted and no other residue's tap multiplied. A dX element is one flat
// sum over (output channel, tap) ascending from +0; at stride 1 that is the
// forward convolution of dY with the kernel rotated by 180°.
type ConvGradPlan struct {
	ConvShape // the forward convolution's
	// ConvPlan is the dY image [OutC, OutH, OutW] the residues read, under
	// the smallest even border all their windows fit in: StagedLen, Stage.
	ConvPlan
	subs     []residue
	splitLen int // Σ of the residues' output lengths
}

// residue is the sub-convolution of the dX positions of one residue pair;
// its ConvPlan is the dY image's with the residue's taps in off.
type residue struct {
	ConvPlan
	y, x    gradAxis
	wAt, at int // where its taps sit in Weights' output, its output in Run's
}

// gradAxis is residue t of one axis: taps t, t+Stride, … (n of them), and
// the cnt positions j·Stride+t−Pad from j = j0.
type gradAxis struct{ t, n, j0, cnt int }

// first returns the residue's first position.
func (a gradAxis) first(stride, pad int) int { return a.j0*stride + a.t - pad }

// gradAxes returns the residues of an axis of in positions and out outputs
// that have a tap and a position, and the border around dY their windows
// need: position j reads dY j−n+1 … j.
func (s ConvShape) gradAxes(in, out int) (axes []gradAxis, border int) {
	for t := 0; t < min(s.K, s.Stride); t++ {
		a := gradAxis{t: t, n: (s.K - t + s.Stride - 1) / s.Stride, j0: (s.Pad - t + s.Stride - 1) / s.Stride}
		if last := in - 1 + s.Pad - t; last >= 0 {
			a.cnt = last/s.Stride + 1 - a.j0
		}
		if a.cnt > 0 {
			axes = append(axes, a)
			border = max(border, a.n-1-a.j0, a.j0+a.cnt-out)
		}
	}
	return axes, border
}

// NewConvGradPlan works out the input gradient of the convolution s.
func NewConvGradPlan(s ConvShape) *ConvGradPlan {
	if !s.valid() {
		panic("tensor: NewConvGradPlan geometry invalid")
	}
	oh, ow := s.OutH(), s.OutW()
	rows, by := s.gradAxes(s.H, oh)
	cols, bx := s.gradAxes(s.W, ow)
	b := max(by, bx)
	p := &ConvGradPlan{ConvShape: s, ConvPlan: ConvPlan{res: 1, subH: oh + 2*b, subW: ow + 2*b,
		ConvShape: ConvShape{InC: s.OutC, OutC: s.InC, H: oh, W: ow, Stride: 1, Pad: b, Groups: s.Groups}}}
	outCg := s.OutC / s.Groups // a residue's reduction channels
	if outCg*p.chanLen() > math.MaxInt32 {
		panic("tensor: NewConvGradPlan gradient too large for 32-bit offsets")
	}
	wAt := 0
	for _, y := range rows {
		for _, x := range cols {
			r := residue{ConvPlan: p.ConvPlan, y: y, x: x, wAt: wAt, at: p.splitLen}
			off := make([]int32, 0, outCg*y.n*x.n)
			for oc := 0; oc < outCg; oc++ {
				for my := 0; my < y.n; my++ {
					for mx := 0; mx < x.n; mx++ {
						off = append(off, int32((oc*r.subH+y.j0-y.n+1+b+my)*r.subW+x.j0-x.n+1+b+mx))
					}
				}
			}
			r.offsets = newOffsets(off)
			r.spans, r.spanPix = y.cnt, x.cnt
			if x.cnt == r.subW { // whole staged rows: the output plane is one run
				r.spans, r.spanPix = 1, y.cnt*x.cnt
			}
			p.subs = append(p.subs, r)
			wAt += s.InC * len(r.off)
			p.splitLen += s.InC * y.cnt * x.cnt
		}
	}
	return p
}

// SplitLen returns the length of the buffer Run writes and Unstage reads: 0
// at stride 1, where Run writes dX itself, and never 0 otherwise.
func (p *ConvGradPlan) SplitLen() int {
	if p.Stride == 1 {
		return 0
	}
	return max(p.splitLen, 1)
}

// GridResidue returns where in Run's output the residue lies whose
// positions are the rows and columns ≡ 0 mod Stride, all ⌈H/Stride⌉ ×
// ⌈W/Stride⌉ of them per channel ([InC, ⌈H/Stride⌉, ⌈W/Stride⌉] from
// there), and false when there is none — when no tap reaches that grid
// (K ≤ Pad mod Stride), and at stride 1, where Run writes dX itself. A
// 1×1 unpadded convolution's one residue is its grid.
func (p *ConvGradPlan) GridResidue() (at int, ok bool) {
	if p.Stride == 1 {
		return 0, false
	}
	for _, r := range p.subs {
		if r.y.first(p.Stride, p.Pad) == 0 && r.x.first(p.Stride, p.Pad) == 0 {
			return r.at, true
		}
	}
	return 0, false
}

// Weights gathers into dst [len(w)] the taps the residues convolve dY with
// out of the forward's weights w [OutC, InC/Groups·K·K]: per residue, row ic
// holds the residue's taps of w[oc][ic] reversed for each oc of ic's group —
// the kernel rotated by 180°, its channel axes transposed.
func (p *ConvGradPlan) Weights(dst, w []float32) {
	inCg, outCg, kk := p.InC/p.Groups, p.OutC/p.Groups, p.K*p.K
	if len(w) < p.OutC*inCg*kk || len(dst) < len(w) {
		panic("tensor: ConvGradPlan.Weights slice too short")
	}
	for _, r := range p.subs {
		out := dst[r.wAt:]
		for ic := 0; ic < p.InC; ic++ {
			for oc := ic / inCg * outCg; oc < (ic/inCg+1)*outCg; oc++ {
				src := w[(oc*inCg+ic%inCg)*kk:][:kk]
				for my := r.y.n - 1; my >= 0; my-- {
					for mx := r.x.n - 1; mx >= 0; mx-- {
						out[0], out = src[(r.y.t+my*p.Stride)*p.K+r.x.t+mx*p.Stride], out[1:]
					}
				}
			}
		}
	}
}

// Run computes one image's residues from dy (or its Stage'd copy) under the
// taps w that Weights gathered, into out: dX [InC, H, W] at stride 1, a
// SplitLen() buffer for Unstage otherwise.
func (p *ConvGradPlan) Run(out, dy, w []float32) {
	if len(out) < p.splitLen {
		panic("tensor: ConvGradPlan.Run slice too short")
	}
	for i := range p.subs {
		r := &p.subs[i]
		r.Run(out[r.at:], dy, w[r.wAt:])
	}
}

// Unstage interleaves one image's residue outputs split into dx [InC, H, W],
// the inverse of Stage's residue split, one call per row residue across
// every channel. At stride 2 a row residue's rows are zipped in one pass
// from the column residue holding column 0 and the one holding column 1 —
// zero where there is none (K = 1) — so each element is written once; any
// other residue is scattered on its own. Every element of dx is written:
// those no tap reaches (K < Stride) are zeroed first.
func (p *ConvGradPlan) Unstage(dx, split []float32) {
	plane := p.H * p.W
	if len(dx) < p.InC*plane || len(split) < p.splitLen {
		panic("tensor: ConvGradPlan.Unstage slice too short")
	}
	if p.K < p.Stride {
		clear(dx[:p.InC*plane])
	}
	for i := 0; i < len(p.subs); i++ {
		a, b := &p.subs[i], (*residue)(nil)
		if p.Stride == 2 && i+1 < len(p.subs) && p.subs[i+1].y == a.y {
			i++
			if b = &p.subs[i]; a.x.first(2, p.Pad) != 0 {
				a, b = b, a
			}
		}
		y0, x0 := a.y.first(p.Stride, p.Pad), a.x.first(p.Stride, p.Pad)
		if p.Stride != 2 || x0 != 0 {
			scatterRows(dx[y0*p.W+x0:], p.Stride*p.W, plane, split[a.at:], a.x.cnt, a.y.cnt, p.InC, a.x.cnt, p.Stride)
			continue
		}
		var odd []float32 // none: zero
		oddStride := 0
		if b != nil {
			odd, oddStride = split[b.at:], b.x.cnt
		}
		interleaveRows(dx[y0*p.W:], 2*p.W, plane, split[a.at:], a.x.cnt, odd, oddStride, a.y.cnt, p.InC, p.W)
	}
}

// AddWeightGrad adds the weight gradient of one image x [InC, H, W] under
// dy [OutC, OutH, OutW] to dw [OutC, InC/Groups·K·K]: dw[oc][r] +=
// dot(dy[oc], row r of x's im2col lowering), lowered into row [OutH·OutW].
func (p *ConvGradPlan) AddWeightGrad(dw, x, dy, row []float32) {
	inCg, outCg, kk := p.InC/p.Groups, p.OutC/p.Groups, p.K*p.K
	cols, plane := p.OutH()*p.OutW(), p.H*p.W
	if len(dw) < p.OutC*inCg*kk || len(x) < p.InC*plane || len(dy) < p.OutC*cols || len(row) < cols {
		panic("tensor: ConvGradPlan.AddWeightGrad slice too short")
	}
	for g := 0; g < p.Groups; g++ {
		for r := 0; r < inCg*kk; r++ {
			ic := g*inCg + r/kk
			lowerPlanes(row[:cols], cols, x[ic*plane:(ic+1)*plane], plane, 1, newLowering(p.OutH(), p.OutW(), r%kk/p.K-p.Pad, r%p.K-p.Pad, p.Stride, p.H, p.W))
			for oc := g * outCg; oc < (g+1)*outCg; oc++ {
				dw[oc*inCg*kk+r] += dot(dy[oc*cols:(oc+1)*cols], row[:cols])
			}
		}
	}
}
