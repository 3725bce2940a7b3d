//go:build linux

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardPaged returns n ≥ 1 float32s laid flush against a page no access
// is allowed to: the slice ends where that page begins when back is set,
// and starts where one ends otherwise, so touching the element just past
// its end (or just before its start) faults. The mapping lives until t
// ends.
func guardPaged(t testing.TB, n int, back bool) []float32 {
	t.Helper()
	page := os.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, g := range [][]byte{mem[:page], mem[page+data:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
	off := page
	if back {
		off = page + data - 4*n
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[off])), n)
}

// faults runs f and reports whether it touched an address the hardware
// refused, recovered as a panic rather than a crash of the test binary;
// any other panic propagates.
func faults(f func()) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(interface{ Addr() uintptr }); !ok {
				panic(r)
			}
			faulted = true
		}
	}()
	f()
	return false
}

// noFault reports a fault in f as a failure of the case named what.
func noFault(t *testing.T, what string, f func()) {
	t.Helper()
	if faults(f) {
		t.Errorf("%s: touched memory outside its operands", what)
	}
}

// TestGuardPagesFault checks the harness itself: one element past either
// end of a guard-paged slice is out of bounds for the hardware too.
func TestGuardPagesFault(t *testing.T) {
	for _, back := range []bool{false, true} {
		s := guardPaged(t, 3, back)
		past := unsafe.Add(unsafe.Pointer(&s[0]), -4)
		if back {
			past = unsafe.Add(unsafe.Pointer(&s[0]), 4*len(s))
		}
		if !faults(func() { _ = *(*float32)(past) }) {
			t.Errorf("back=%v: reading past the slice did not fault", back)
		}
		if faults(func() { s[0], s[len(s)-1] = 1, 2 }) {
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

// nanPaged returns n ≥ 1 NaNs laid flush against a guard page (guardPaged).
func nanPaged(t *testing.T, n int, back bool) []float32 {
	buf := guardPaged(t, max(n, 1), back)[:n]
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
	src := guardPaged(t, p.InC*p.H*p.W, back)
	copy(src, randSlice(rng, len(src)))
	dst := nanPaged(t, p.StagedLen(), back)
	what := fmt.Sprintf("Stage %+v back=%v", p.ConvShape, back)
	noFault(t, what, func() { p.Stage(dst, src) })
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
	split := guardPaged(t, p.SplitLen(), back)
	for i := range split {
		split[i] = float32(i + 1)
	}
	dx := nanPaged(t, p.InC*p.H*p.W, back)
	what := fmt.Sprintf("Unstage %+v back=%v", p.ConvShape, back)
	noFault(t, what, func() { p.Unstage(dx, split) })
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
