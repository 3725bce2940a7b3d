//go:build linux

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"edgetta/internal/guardpage"
)

// TestGuardPagesFault checks the harness itself: one element past either
// end of a guard-paged slice is out of bounds for the hardware too.
func TestGuardPagesFault(t *testing.T) {
	for _, back := range []bool{false, true} {
		s := guardpage.Floats(t, 3, back)
		past := unsafe.Add(unsafe.Pointer(&s[0]), -4)
		if back {
			past = unsafe.Add(unsafe.Pointer(&s[0]), 4*len(s))
		}
		if !guardpage.Faults(func() { _ = *(*float32)(past) }) {
			t.Errorf("back=%v: reading past the slice did not fault", back)
		}
		if guardpage.Faults(func() { s[0], s[len(s)-1] = 1, 2 }) {
			t.Errorf("back=%v: writing inside the slice faulted", back)
		}
	}
}

// FuzzStage decodes a convolution from the fuzz bytes — channels 1–17, H
// and W 1–40, K 1–5, stride 1–3, pad 0–K+1 — and holds the forward's
// Stage, the input gradient's Stage of dY and its Unstage to their index
// definitions, on operands laid flush against a guard page at their front
// and at their back and filled with NaN: an access outside an operand
// faults, and an element left unwritten stays NaN, which no expected value
// is.
func FuzzStage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		k := 1 + int(data[3])%5
		s := ConvShape{InC: 1 + int(data[0])%17, H: 1 + int(data[1])%40, W: 1 + int(data[2])%40,
			K: k, Stride: 1 + int(data[4])%3, Pad: int(data[5]) % (k + 2), Groups: 1}
		s.OutC = s.InC
		if !s.valid() {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		g := NewConvGradPlan(s)
		for _, back := range []bool{false, true} {
			checkStage(t, NewConvPlan(s), rng, back)
			checkStage(t, &g.ConvPlan, rng, back)
			checkUnstage(t, g, back)
		}
	})
}

// nanPaged returns n ≥ 1 NaNs laid flush against a guard page
// (guardpage.Floats).
func nanPaged(t *testing.T, n int, back bool) []float32 {
	buf := guardpage.Floats(t, max(n, 1), back)[:n]
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	return buf
}

// checkStage stages a random image with p and requires sub-plane (py, px)
// of each channel to be the zero-padded input at rows ≡ py and columns ≡
// px modulo the stride.
func checkStage(t *testing.T, p *ConvPlan, rng *rand.Rand, back bool) {
	t.Helper()
	if p.StagedLen() == 0 {
		return
	}
	src := guardpage.Floats(t, p.InC*p.H*p.W, back)
	copy(src, randSlice(rng, len(src)))
	dst := nanPaged(t, p.StagedLen(), back)
	what := fmt.Sprintf("Stage %+v back=%v", p.ConvShape, back)
	guardpage.NoFault(t, what, func() { p.Stage(dst, src) })
	i := 0
	for ic := 0; ic < p.InC; ic++ {
		for py := 0; py < p.res; py++ {
			for px := 0; px < p.res; px++ {
				for r := 0; r < p.subH; r++ {
					for c := 0; c < p.subW; c++ {
						iy, ix := r*p.Stride+py-p.Pad, c*p.Stride+px-p.Pad
						want := float32(0)
						if iy >= 0 && iy < p.H && ix >= 0 && ix < p.W {
							want = src[(ic*p.H+iy)*p.W+ix]
						}
						if dst[i] != want {
							t.Fatalf("%s: channel %d sub-plane (%d,%d) at (%d,%d) = %v, want %v", what, ic, py, px, r, c, dst[i], want)
						}
						i++
					}
				}
			}
		}
	}
}

// checkUnstage requires Unstage to put element (j, i) of residue (y, x)'s
// output for channel ic at dx[ic][(y.j0+j)·S + y.t − Pad][(x.j0+i)·S + x.t
// − Pad], and zero where no tap reaches.
func checkUnstage(t *testing.T, p *ConvGradPlan, back bool) {
	t.Helper()
	if p.SplitLen() == 0 {
		return
	}
	split := guardpage.Floats(t, p.SplitLen(), back)
	for i := range split {
		split[i] = float32(i + 1)
	}
	dx := nanPaged(t, p.InC*p.H*p.W, back)
	what := fmt.Sprintf("Unstage %+v back=%v", p.ConvShape, back)
	guardpage.NoFault(t, what, func() { p.Unstage(dx, split) })
	want := make([]float32, len(dx))
	for _, r := range p.subs {
		for ic := 0; ic < p.InC; ic++ {
			for j := 0; j < r.y.cnt; j++ {
				for i := 0; i < r.x.cnt; i++ {
					y, x := (r.y.j0+j)*p.Stride+r.y.t-p.Pad, (r.x.j0+i)*p.Stride+r.x.t-p.Pad
					want[(ic*p.H+y)*p.W+x] = split[r.at+(ic*r.y.cnt+j)*r.x.cnt+i]
				}
			}
		}
	}
	for at := range dx {
		if dx[at] != want[at] {
			t.Fatalf("%s: dx[%d] = %v, want %v", what, at, dx[at], want[at])
		}
	}
}
