//go:build linux

package tensor

import (
	"fmt"
	"testing"
)

// TestRowKernelsStayInsideTheirOperands places every operand of the row
// kernels flush against a guard page — all at their front, then all at
// their back — sized to exactly the extent the wrapper admits, and runs each
// kernel over generated extents through its wrapper and directly: a load
// or store one element outside an operand faults.
func TestRowKernelsStayInsideTheirOperands(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: the wrappers run the generic twins")
	}
	for _, back := range []bool{false, true} {
		for rows := 1; rows <= 3; rows++ {
			for cols := 1; cols <= 35; cols++ {
				for _, slack := range []int{0, 3} {
					for step := 1; step <= 2; step++ {
						dstStride, srcStride := cols+slack, (cols-1)*step+1+slack
						dst := guardPaged(t, (rows-1)*dstStride+cols, back)
						src := guardPaged(t, (rows-1)*srcStride+(cols-1)*step+1, back)
						noFault(t, fmt.Sprintf("gatherRows back=%v rows=%d cols=%d step=%d slack=%d", back, rows, cols, step, slack), func() {
							gatherRows(dst, dstStride, src, srcStride, rows, cols, step)
							gatherRowsAVX2(dst, dstStride, src, srcStride, rows, cols, step)
						})
					}
					n := cols
					aStride, bStride := (n+1)/2+slack, n/2+slack
					dst := guardPaged(t, (rows-1)*(n+slack)+n, back)
					a := guardPaged(t, (rows-1)*aStride+(n+1)/2, back)
					b := a[:0] // the odd elements zero: b is never read
					if n > 1 {
						b = guardPaged(t, (rows-1)*bStride+n/2, back)
					}
					noFault(t, fmt.Sprintf("interleaveRows back=%v rows=%d n=%d slack=%d", back, rows, n, slack), func() {
						interleaveRows(dst, n+slack, a, aStride, b, bStride, rows, n)
						interleaveRowsAVX2(dst, n+slack, a, aStride, b, bStride, rows, n)
						interleaveRows(dst, n+slack, a, aStride, nil, 0, rows, n)
						interleaveRowsAVX2(dst, n+slack, a, aStride, a[:0], 0, rows, n)
					})
				}
			}
		}
	}
}

// noFault reports a fault in f as a failure of the case named what.
func noFault(t *testing.T, what string, f func()) {
	t.Helper()
	if faults(f) {
		t.Errorf("%s: touched memory outside its operands", what)
	}
}
