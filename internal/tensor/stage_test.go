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

// TestRowKernelsMatchGenericTwins pins each row-block kernel the build
// dispatches to against its generic twin, bit for bit, over random row
// counts, row lengths, strides, steps and operand offsets; the gaps
// between destination rows belong to nobody and must keep their canaries.
func TestRowKernelsMatchGenericTwins(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3000; trial++ {
		rows, cols, step := 1+rng.Intn(5), 1+rng.Intn(40), 1+rng.Intn(3)
		dstStride, srcStride := cols+rng.Intn(4), (cols-1)*step+1+rng.Intn(4)
		dOff, sOff := rng.Intn(9), rng.Intn(9)
		src := randSlice(rng, sOff+(rows-1)*srcStride+(cols-1)*step+1)
		got, gotOK := nanFilled(dOff + (rows-1)*dstStride + cols)
		want, _ := nanFilled(len(got))
		gatherRows(got[dOff:], dstStride, src[sOff:], srcStride, rows, cols, step)
		gatherRowsGeneric(want[dOff:], dstStride, src[sOff:], srcStride, rows, cols, step)
		if !bitsEqual(got, want) || !gotOK() {
			t.Fatalf("gatherRows rows=%d cols=%d step=%d strides %d/%d offsets %d/%d differs from its twin", rows, cols, step, dstStride, srcStride, dOff, sOff)
		}

		n := cols
		aStride, bStride := (n+1)/2+rng.Intn(4), n/2+rng.Intn(4)
		a := randSlice(rng, sOff+(rows-1)*aStride+(n+1)/2)[sOff:]
		b := randSlice(rng, (rows-1)*bStride+n/2)
		if trial%4 == 0 {
			b, bStride = nil, 0 // odd elements zero
		}
		got, gotOK = nanFilled(dOff + (rows-1)*dstStride + n)
		want, _ = nanFilled(len(got))
		interleaveRows(got[dOff:], dstStride, a, aStride, b, bStride, rows, n)
		interleaveRowsGeneric(want[dOff:], dstStride, a, aStride, b, bStride, rows, n)
		if !bitsEqual(got, want) || !gotOK() {
			t.Fatalf("interleaveRows rows=%d n=%d strides %d/%d/%d b=%v differs from its twin", rows, n, dstStride, aStride, bStride, b != nil)
		}
	}
}

// stagedShapes are the distinct staged forward convolutions of the WRN-AM
// and RXT-AM repro models on a 32×32 input (OutC and groups do not change
// what Stage copies, so each shape appears once), named after a layer that
// runs them.
var stagedShapes = []struct {
	name string
	s    ConvShape
}{
	{"stem_3x32_k3s1", ConvShape{InC: 3, OutC: 8, H: 32, W: 32, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"wrn_group1_8x32_k3s1", ConvShape{InC: 8, OutC: 8, H: 32, W: 32, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"wrn_group2.conv1_8x32_k3s2", ConvShape{InC: 8, OutC: 16, H: 32, W: 32, K: 3, Stride: 2, Pad: 1, Groups: 1}},
	{"wrn_group2.shortcut_8x32_k1s2", ConvShape{InC: 8, OutC: 16, H: 32, W: 32, K: 1, Stride: 2, Pad: 0, Groups: 1}},
	{"wrn_group2.conv2_16x16_k3s1", ConvShape{InC: 16, OutC: 16, H: 16, W: 16, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"wrn_group3.conv1_16x16_k3s2", ConvShape{InC: 16, OutC: 32, H: 16, W: 16, K: 3, Stride: 2, Pad: 1, Groups: 1}},
	{"wrn_group3.shortcut_16x16_k1s2", ConvShape{InC: 16, OutC: 32, H: 16, W: 16, K: 1, Stride: 2, Pad: 0, Groups: 1}},
	{"wrn_group3.conv2_32x8_k3s1", ConvShape{InC: 32, OutC: 32, H: 8, W: 8, K: 3, Stride: 1, Pad: 1, Groups: 1}},
	{"rxt_stage2.conv2_16x32_k3s2", ConvShape{InC: 16, OutC: 16, H: 32, W: 32, K: 3, Stride: 2, Pad: 1, Groups: 2}},
	{"rxt_stage2.shortcut_16x32_k1s2", ConvShape{InC: 16, OutC: 32, H: 32, W: 32, K: 1, Stride: 2, Pad: 0, Groups: 1}},
	{"rxt_stage3.conv2_32x16_k3s2", ConvShape{InC: 32, OutC: 32, H: 16, W: 16, K: 3, Stride: 2, Pad: 1, Groups: 2}},
	{"rxt_stage3.shortcut_32x16_k1s2", ConvShape{InC: 32, OutC: 64, H: 16, W: 16, K: 1, Stride: 2, Pad: 0, Groups: 1}},
}

// BenchmarkConvStage times one image's Stage per staged repro-model shape.
func BenchmarkConvStage(b *testing.B) {
	for _, c := range stagedShapes {
		b.Run(c.name, func(b *testing.B) {
			p := NewConvPlan(c.s)
			src := randSlice(rand.New(rand.NewSource(1)), c.s.InC*c.s.H*c.s.W)
			dst := make([]float32, p.StagedLen())
			b.SetBytes(int64(4 * len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Stage(dst, src)
			}
		})
	}
}

// BenchmarkConvUnstage times one image's Unstage for the strided input
// gradients of the WRN-AM repro model: the two 3×3 stride-2 convs and
// their 1×1 stride-2 shortcuts.
func BenchmarkConvUnstage(b *testing.B) {
	for _, c := range stagedShapes {
		if c.s.Stride == 1 || !strings.HasPrefix(c.name, "wrn") {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			p := NewConvGradPlan(c.s)
			split := randSlice(rand.New(rand.NewSource(1)), p.SplitLen())
			dx := make([]float32, c.s.InC*c.s.H*c.s.W)
			b.SetBytes(int64(4 * len(dx)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Unstage(dx, split)
			}
		})
	}
}
