package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Stage, Unstage, Im2Col and AddWeightGrad all move data through the same
// row-block kernels, so a parity test between two of them cannot see a
// lowering bug: the tests here hold each to its index formula instead,
// over planes that reach the kernels' vector bodies and tails.

// stagingShapes returns two-channel convolutions over H, W ∈ {1, 7, 8, 9,
// 16, 17, 32, 33}, stride 1–3, K ∈ {1, 3, 5} and pad ∈ {0, 1, K−1, K, K+1}:
// every one with an output pixel.
func stagingShapes() []ConvShape {
	sizes := []int{1, 7, 8, 9, 16, 17, 32, 33}
	var shapes []ConvShape
	for _, h := range sizes {
		for _, w := range sizes {
			for _, stride := range []int{1, 2, 3} {
				for _, k := range []int{1, 3, 5} {
					seen := map[int]bool{}
					for _, pad := range []int{0, 1, k - 1, k, k + 1} {
						s := ConvShape{InC: 2, OutC: 2, H: h, W: w, K: k, Stride: stride, Pad: pad, Groups: 1}
						if !seen[pad] && s.valid() {
							shapes = append(shapes, s)
						}
						seen[pad] = true
					}
				}
			}
		}
	}
	return shapes
}

// nanFilled returns a guarded buffer of n NaNs: an element its writer
// leaves alone stays NaN, which no expected value is.
func nanFilled(n int) ([]float32, func() bool) {
	buf, ok := guarded(n)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	return buf, ok
}

// TestStageBakesBorderAndSplitsResidues holds Stage to its definition:
// sub-plane (py, px) of a channel is the zero-padded input at rows ≡ py and
// columns ≡ px modulo the stride, and every element of the buffer is
// written.
func TestStageBakesBorderAndSplitsResidues(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range stagingShapes() {
		p := NewConvPlan(s)
		if p.StagedLen() == 0 {
			continue
		}
		src := randSlice(rng, s.InC*s.H*s.W)
		dst, dstOK := nanFilled(p.StagedLen())
		p.Stage(dst, src)
		if !dstOK() {
			t.Errorf("%+v: Stage wrote outside its buffer", s)
		}
		i := 0
		for ic := 0; ic < s.InC; ic++ {
			for py := 0; py < p.res; py++ {
				for px := 0; px < p.res; px++ {
					for r := 0; r < p.subH; r++ {
						for c := 0; c < p.subW; c++ {
							iy, ix := r*s.Stride+py-s.Pad, c*s.Stride+px-s.Pad
							want := float32(0)
							if iy >= 0 && iy < s.H && ix >= 0 && ix < s.W {
								want = src[(ic*s.H+iy)*s.W+ix]
							}
							if dst[i] != want {
								t.Fatalf("%+v: channel %d sub-plane (%d,%d) at (%d,%d) = %v, want %v", s, ic, py, px, r, c, dst[i], want)
							}
							i++
						}
					}
				}
			}
		}
	}
}

// TestUnstagePlacesEveryResidue holds Unstage to the residue layout Run
// writes: element (j, i) of residue (y, x)'s output for channel ic lands
// at dx[ic][(y.j0+j)·S + y.t − Pad][(x.j0+i)·S + x.t − Pad], each dx
// element holds exactly one residue element unless no tap reaches it, and
// those are zero.
func TestUnstagePlacesEveryResidue(t *testing.T) {
	for _, s := range stagingShapes() {
		p := NewConvGradPlan(s)
		if p.SplitLen() == 0 {
			continue
		}
		split := make([]float32, p.SplitLen())
		for i := range split {
			split[i] = float32(i + 1)
		}
		dx, dxOK := nanFilled(s.InC * s.H * s.W)
		p.Unstage(dx, split)
		if !dxOK() {
			t.Errorf("%+v: Unstage wrote outside dx", s)
		}
		want, hits := make([]float32, len(dx)), make([]int, len(dx))
		for _, r := range p.subs {
			n := r.y.cnt * r.x.cnt
			for ic := 0; ic < s.InC; ic++ {
				for j := 0; j < r.y.cnt; j++ {
					for i := 0; i < r.x.cnt; i++ {
						y, x := (r.y.j0+j)*s.Stride+r.y.t-s.Pad, (r.x.j0+i)*s.Stride+r.x.t-s.Pad
						at := (ic*s.H+y)*s.W + x
						want[at] = split[r.at+ic*n+j*r.x.cnt+i]
						hits[at]++
					}
				}
			}
		}
		for at := range dx {
			y, x := at/s.W%s.H, at%s.W
			cover := 0
			if (y+s.Pad)%s.Stride < s.K && (x+s.Pad)%s.Stride < s.K {
				cover = 1
			}
			if hits[at] != cover {
				t.Fatalf("%+v: dx (%d,%d) is covered by %d residue elements, want %d", s, y, x, hits[at], cover)
			}
			if dx[at] != want[at] {
				t.Fatalf("%+v: dx[%d] at (%d,%d) = %v, want %v", s, at/(s.H*s.W), y, x, dx[at], want[at])
			}
		}
	}
}

// TestIm2ColLowersByDefinition holds the im2col lowering — the forward's
// oracle, and what AddWeightGrad lowers row by row — to its index formula
// (im2colRef), writing every element of a buffer full of NaN.
func TestIm2ColLowersByDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, s := range stagingShapes() {
		x := randSlice(rng, s.InC*s.H*s.W)
		n := s.InC * s.K * s.K * s.OutH() * s.OutW()
		got, gotOK := nanFilled(n)
		want := make([]float32, n)
		Im2Col(got, x, s.InC, s.H, s.W, s.K, s.Stride, s.Pad)
		im2colRef(want, x, s.InC, s.H, s.W, s.K, s.Stride, s.Pad)
		if !bitsEqual(got, want) || !gotOK() {
			t.Fatalf("%+v: Im2Col differs from its definition", s)
		}
	}
}

// lowerRoutine is a way to run lowerPlanes: its wrapper, or one vector
// routine called directly (steps 1 and 2 only).
type lowerRoutine struct {
	name string
	has  bool
	run  func(dst []float32, dstPlane int, src []float32, srcPlane, planes int, l lowering)
}

// allLowerRoutines is the dispatching wrapper and every vector lowering
// routine of this architecture (lowerRoutines).
func allLowerRoutines() []lowerRoutine {
	return append([]lowerRoutine{{"lowerPlanes", true, lowerPlanes}}, lowerRoutines()...)
}

// randLowering draws a block of 1–6 rows of 1–40 outputs over an h×w plane
// (each 1–20) at stride 1–3, its origin anywhere from 6 before the plane
// to past its end: inside the plane, padded on any side, or all padding.
func randLowering(rng *rand.Rand) (l lowering, h, w int) {
	h, w = 1+rng.Intn(20), 1+rng.Intn(20)
	n, wout, stride := 1+rng.Intn(6), 1+rng.Intn(40), 1+rng.Intn(3)
	return newLowering(n, wout, rng.Intn(h+7)-6, rng.Intn(w+7)-6, stride, h, w), h, w
}

// TestRowKernelsMatchGenericTwins pins each plane-stack kernel — the
// dispatcher and every vector routine — against its generic twin, bit for
// bit, over random blocks, stacks of one to four planes, plane strides and
// operand offsets; the gaps between destination planes belong to nobody
// and must keep their canaries.
func TestRowKernelsMatchGenericTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3000; trial++ {
		l, h, w := randLowering(rng)
		planes, dOff := 1+rng.Intn(4), rng.Intn(9)
		dstPlane, srcPlane := l.dstLen()+rng.Intn(4), h*w+rng.Intn(4)
		src := randSlice(rng, (planes-1)*srcPlane+h*w)
		want, _ := nanFilled(dOff + (planes-1)*dstPlane + l.dstLen())
		lowerPlanesGeneric(want[dOff:], dstPlane, src, srcPlane, planes, l)
		for _, r := range allLowerRoutines() {
			if !r.has || r.name != "lowerPlanes" && l.step > 2 {
				continue
			}
			got, gotOK := nanFilled(len(want))
			r.run(got[dOff:], dstPlane, src, srcPlane, planes, l)
			if !bitsEqual(got, want) || !gotOK() {
				t.Fatalf("%s %+v planes=%d strides %d/%d offset %d differs from its twin", r.name, l, planes, dstPlane, srcPlane, dOff)
			}
		}

		rows, n := 1+rng.Intn(5), 1+rng.Intn(40)
		dstStride := n + rng.Intn(4)
		dstPlane = (rows-1)*dstStride + n + rng.Intn(4)
		aStride, bStride := (n+1)/2+rng.Intn(4), n/2+rng.Intn(4)
		a := randSlice(rng, dOff+(planes*rows-1)*aStride+(n+1)/2)[dOff:]
		b := randSlice(rng, (planes*rows-1)*bStride+n/2)
		if trial%4 == 0 {
			b, bStride = nil, 0 // odd elements zero
		}
		got, gotOK := nanFilled(dOff + (planes-1)*dstPlane + (rows-1)*dstStride + n)
		want, _ = nanFilled(len(got))
		interleaveRows(got[dOff:], dstStride, dstPlane, a, aStride, b, bStride, rows, planes, n)
		interleaveRowsGeneric(want[dOff:], dstStride, dstPlane, a, aStride, b, bStride, rows, planes, n)
		if !bitsEqual(got, want) || !gotOK() {
			t.Fatalf("interleaveRows rows=%d planes=%d n=%d strides %d/%d/%d/%d b=%v differs from its twin", rows, planes, n, dstStride, dstPlane, aStride, bStride, b != nil)
		}
	}
}

// stagedShapes are the convRunShapes that Stage copies, one per distinct
// input geometry (OutC and groups do not change what Stage copies).
func stagedShapes() (out []struct {
	name string
	s    ConvShape
}) {
	seen := map[ConvShape]bool{}
	for _, c := range convRunShapes {
		in := c.s
		in.OutC, in.Groups = 0, 0
		if NewConvPlan(c.s).StagedLen() > 0 && !seen[in] {
			seen[in] = true
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkConvStage times one image's Stage per staged repro-model shape
// (fw), the Stage of dY its input gradient makes (dx, stride 1), and a
// copy of as many floats as the forward's staged buffer holds (copy): the
// speed staging would have if it were a plain copy.
func BenchmarkConvStage(b *testing.B) {
	stage := func(b *testing.B, p *ConvPlan) {
		src := randSlice(rand.New(rand.NewSource(1)), p.InC*p.H*p.W)
		dst := make([]float32, p.StagedLen())
		b.SetBytes(int64(4 * len(src)))
		for b.Loop() {
			p.Stage(dst, src)
		}
	}
	for _, c := range stagedShapes() {
		p, g := NewConvPlan(c.s), NewConvGradPlan(c.s)
		b.Run(c.name+"/fw", func(b *testing.B) { stage(b, p) })
		if g.StagedLen() > 0 {
			b.Run(c.name+"/dx", func(b *testing.B) { stage(b, &g.ConvPlan) })
		}
		b.Run(c.name+"/copy", func(b *testing.B) {
			src := randSlice(rand.New(rand.NewSource(1)), p.StagedLen())
			dst := make([]float32, len(src))
			b.SetBytes(int64(4 * c.s.InC * c.s.H * c.s.W))
			for b.Loop() {
				copy(dst, src)
			}
		})
	}
}

// BenchmarkConvUnstage times one image's Unstage for the strided input
// gradients of the WRN-AM repro model: the two 3×3 stride-2 convs and
// their 1×1 stride-2 shortcuts.
func BenchmarkConvUnstage(b *testing.B) {
	for _, c := range stagedShapes() {
		if c.s.Stride == 1 || !strings.HasPrefix(c.name, "wrn") {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			p := NewConvGradPlan(c.s)
			split := randSlice(rand.New(rand.NewSource(1)), p.SplitLen())
			dx := make([]float32, c.s.InC*c.s.H*c.s.W)
			b.SetBytes(int64(4 * len(dx)))
			for b.Loop() {
				p.Unstage(dx, split)
			}
		})
	}
}
