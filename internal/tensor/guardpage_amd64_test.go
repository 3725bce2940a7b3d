//go:build linux

package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgetta/internal/guardpage"
)

// TestRowKernelsStayInsideTheirOperands places every operand of the
// plane-stack kernels flush against a guard page — all at their front, then
// all at their back — sized to exactly the extent the wrapper admits, and
// runs each kernel over generated blocks, one plane and a stack of three,
// through its wrapper and directly: a load or store one element outside
// an operand faults. A lowering's source starts at the first value it
// reads, so a read before that faults too.
func TestRowKernelsStayInsideTheirOperands(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: the wrappers run the generic twins")
	}
	for _, back := range []bool{false, true} {
		for _, planes := range []int{1, 3} {
			for wout := 1; wout <= 35; wout++ {
				for step := 1; step <= 2; step++ {
					for _, pad := range []int{0, 1, 3} {
						// The window overhangs the plane by pad on every side.
						h, w := 3, max(1, (wout-1)*step+1-2*pad)
						l := newLowering(3+2*pad, wout, -pad, -pad, step, h, w)
						l.at = 0 // the source below starts at the first value read
						for _, slack := range []int{0, 3} {
							dstPlane, srcPlane := l.dstLen()+slack, l.srcLen()+slack
							dst := guardpage.Floats(t, (planes-1)*dstPlane+l.dstLen(), back)
							src := guardpage.Floats(t, max(1, (planes-1)*srcPlane+l.srcLen()), back)
							for _, r := range allLowerRoutines() {
								guardpage.NoFault(t, fmt.Sprintf("%s back=%v planes=%d %+v slack=%d", r.name, back, planes, l, slack), func() {
									r.run(dst, dstPlane, src, srcPlane, planes, l)
								})
							}
						}
					}
				}
			}
			for rows := 1; rows <= 3; rows++ {
				for n := 1; n <= 35; n++ {
					for _, slack := range []int{0, 3} {
						dstStride, aStride, bStride := n+slack, (n+1)/2+slack, n/2+slack
						dstPlane := (rows-1)*dstStride + n + slack
						dst := guardpage.Floats(t, (planes-1)*dstPlane+(rows-1)*dstStride+n, back)
						a := guardpage.Floats(t, (planes*rows-1)*aStride+(n+1)/2, back)
						b := a[:0] // the odd elements zero: b is never read
						if n > 1 {
							b = guardpage.Floats(t, (planes*rows-1)*bStride+n/2, back)
						}
						guardpage.NoFault(t, fmt.Sprintf("interleaveRows back=%v planes=%d rows=%d n=%d slack=%d", back, planes, rows, n, slack), func() {
							interleaveRows(dst, dstStride, dstPlane, a, aStride, b, bStride, rows, planes, n)
							interleaveRowsAVX2(dst, dstStride, dstPlane, a, aStride, b, bStride, rows, planes, n)
							interleaveRows(dst, dstStride, dstPlane, a, aStride, nil, 0, rows, planes, n)
							interleaveRowsAVX2(dst, dstStride, dstPlane, a, aStride, a[:0], 0, rows, planes, n)
						})
					}
				}
			}
		}
	}
}

// TestSpanKernelsStayInsideTheirOperands places x, y and w of every span
// routine flush against a guard page — all at their front, then all at
// their back — sized to exactly the extent convSpan admits, over generated
// offset tables, npix 1…40, nspan 1…9, noc 1…17 and spans read 0, npix and
// npix+3 apart, and over one whole plane per layout of the AVX-512 kernel
// (32 spans of 32 pixels, 16 of 16, 8 of 8): a load or store one element
// outside an operand faults. With spans read 0 apart, the masked lanes
// below a packed span's start lie in front of x, so a packed load that
// touched them would fault too.
func TestSpanKernelsStayInsideTheirOperands(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: the wrappers run the generic twin")
	}
	rng := rand.New(rand.NewSource(59))
	newCase := func(noc, npix, nspan, xStep int) spanCase {
		off := make([]int32, 1+rng.Intn(12))
		for i := range off {
			off[i] = int32(rng.Intn(50))
		}
		off[rng.Intn(len(off))] = 0 // x's first element is read
		return spanCase{noc: noc, npix: npix, nspan: nspan, xStep: xStep, off: off,
			yStride: nspan*npix + rng.Intn(3), wStride: len(off) + rng.Intn(3)}
	}
	for _, back := range []bool{false, true} {
		for npix := 1; npix <= 40; npix++ {
			t.Run(fmt.Sprintf("back=%v/npix=%d", back, npix), func(t *testing.T) {
				for nspan := 1; nspan <= 9; nspan++ {
					for noc := 1; noc <= 17; noc++ {
						for _, xStep := range []int{0, npix, npix + 3} {
							runGuardedSpan(t, rng, newCase(noc, npix, nspan, xStep), back)
						}
					}
				}
			})
		}
		for _, n := range []int{32, 16, 8} {
			t.Run(fmt.Sprintf("back=%v/plane=%d", back, n), func(t *testing.T) {
				runGuardedSpan(t, rng, newCase(12, n, n, n+2), back)
			})
		}
	}
}

// runGuardedSpan fills x and w of the case with random values, lays them
// and y flush against a guard page (at their back when back is set), and
// runs every span routine this CPU has on them, each into a NaN-filled y
// and held to the generic kernel bit for bit.
func runGuardedSpan(t *testing.T, rng *rand.Rand, c spanCase, back bool) {
	t.Helper()
	c.x, c.w = guardpage.Floats(t, c.xLen(), back), guardpage.Floats(t, (c.noc-1)*c.wStride+len(c.off), back)
	copy(c.x, randSlice(rng, len(c.x)))
	copy(c.w, randSlice(rng, len(c.w)))
	y, want := guardpage.Floats(t, c.yLen(), back), c.want()
	for _, r := range allSpanRoutines() {
		if !r.has {
			continue
		}
		for i := range y {
			y[i] = float32(math.NaN())
		}
		what := fmt.Sprintf("%s back=%v %+v", r.name, back, c.dims())
		guardpage.NoFault(t, what, func() { r.run(y, c.yStride, c.x, c.w, c.wStride, c.off, c.noc, c.npix, c.nspan, c.xStep) })
		c.check(t, what, y, want, c.noc/r.tile*r.tile)
	}
}

// FuzzConvSpan decodes a span-kernel call from the fuzz bytes — npix,
// noc, nspan, the distance between spans and an offset table — and holds
// every span routine this CPU has to the generic kernel, bit for bit, on
// guard-paged operands, laid against the page at their front and at their
// back.
func FuzzConvSpan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		npix := 1 + int(data[0])%64
		c := spanCase{npix: npix, noc: 1 + int(data[1])%17, nspan: 1 + int(data[2])%40, xStep: int(data[3]) % (npix + 8)}
		for _, b := range data[4:min(len(data), 68)] {
			c.off = append(c.off, int32(b%64))
		}
		if len(c.off) == 0 {
			c.off = []int32{0}
		}
		c.yStride, c.wStride = c.nspan*c.npix, len(c.off)
		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, back := range []bool{false, true} {
			runGuardedSpan(t, rng, c, back)
		}
	})
}

// TestPlaneKernelsStayInsideTheirOperands lays every operand of the plane
// kernels flush against a guard page — all at their front, then all at
// their back — sized to exactly the extent of their planes, and runs every
// plane routine (planeRoutines: the dispatch, each vector routine called
// directly) over plane lengths 1…40, one to three planes, with and without
// gaps between them, in a mode drawn per case: a load or store one element
// outside an operand faults. It also covers axpyAVX2 and dotAVX2, over
// lengths 1…40.
func TestPlaneKernelsStayInsideTheirOperands(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: the wrappers run the generic twins")
	}
	rng := rand.New(rand.NewSource(38))
	for _, back := range []bool{false, true} {
		alloc := func(n int) []float32 { return guardpage.Floats(t, n, back) }
		for plen := 1; plen <= 40; plen++ {
			for n := 1; n <= 3; n++ {
				for _, gap := range []int{0, 5} {
					mode, rect := rng.Intn(16)&^opRect, rects[rng.Intn(len(rects))]
					c := newPlaneCall(rng, Planes{N: n, Len: plen, Stride: plen + gap}, mode, rect, alloc)
					c.check(t, alloc, func(what string, f func()) { guardpage.NoFault(t, fmt.Sprintf("back=%v %s", back, what), f) })
				}
			}
			x, y := guardpage.Floats(t, plen, back), guardpage.Floats(t, plen, back)
			copy(x, randSlice(rng, plen))
			guardpage.NoFault(t, fmt.Sprintf("axpyAVX2/dotAVX2 back=%v n=%d", back, plen), func() {
				axpyAVX2(0.5, x, y)
				dotAVX2(x, y)
			})
		}
	}
}

// FuzzPlaneKernels decodes a channel from the fuzz bytes — plane length,
// plane count, the gap between planes, an offset of the first plane into
// its operand, the mode bits, the rectifier's cap and, when there is a
// seventh byte, the plane length's high byte (lengths 1–1024, so that the
// reductions' 64-element blocks and every tail after them are reached) —
// and holds every
// plane routine this CPU has to the generic twins, bit for bit, on
// guard-paged operands laid against the page at their front and at their
// back.
func FuzzPlaneKernels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		hi := 0
		if len(data) > 6 {
			hi = int(data[6])
		}
		plen, n, gap, off := 1+(int(data[0])|hi<<8)%1024, 1+int(data[1])%5, int(data[2])%20, int(data[3])%16
		mode := int(data[4]) & (opAffine | opResidual | opVary)
		var rect Rect
		if data[4]&opRect != 0 {
			rect = Rect{On: true, Cap: float32(data[5] % 8)}
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, back := range []bool{false, true} {
			alloc := func(n int) []float32 { return guardpage.Floats(t, off+n, back)[off:] }
			c := newPlaneCall(rng, Planes{N: n, Len: plen, Stride: plen + gap}, mode, rect, alloc)
			c.check(t, alloc, func(what string, f func()) {
				guardpage.NoFault(t, fmt.Sprintf("back=%v off=%d %s", back, off, what), f)
			})
		}
	})
}
