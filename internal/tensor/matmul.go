package tensor

import (
	"fmt"

	"edgetta/internal/parallel"
)

// Cache-blocking parameters for the tiled kernels. A B panel is
// mmBlockK×mmBlockN floats (≤128KB), sized to stay resident in L2 while
// it is reused across every output row of a chunk; one panel row (≤1KB)
// and the C segments it updates live in L1. Tile boundaries never change
// the order in which a given output element accumulates its k products
// (always ascending p), so the tiled kernels are bit-identical to the
// untiled i-k-j loops they replaced, for every tile size and worker count.
const (
	mmBlockN   = 256
	mmBlockK   = 128
	mmDotBlock = 32 // B rows kept hot per pass of the A·Bᵀ kernel
)

// rowGrain picks the scheduling grain for loops over output rows so one
// scheduled unit carries at least ~32k flops: whole-row granularity for
// convolution-sized matmuls, coarser bundles for skinny ones.
func rowGrain(k, n int) int {
	const targetFlops = 32 * 1024
	per := 2 * k * n
	if per <= 0 {
		return parallel.DefaultGrain
	}
	g := targetFlops / per
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul computes C = A·B for A [m,k] and B [k,n], returning C [m,n].
func MatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 || a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %v × %v", a.Shape(), b.Shape()))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	MatMulInto(c.Data, a.Data, b.Data, m, k, n, false)
	return c
}

// MatMulInto computes dst = A·B (or dst += A·B when accumulate is true)
// over raw slices: A is [m,k], B is [k,n], dst is [m,n], all row-major.
// Output rows are computed in parallel; within a chunk the loops are tiled
// over k and n so each B panel is loaded once per chunk of rows.
func MatMulInto(dst, a, b []float32, m, k, n int, accumulate bool) {
	if len(dst) < m*n || len(a) < m*k || len(b) < k*n {
		panic("tensor: MatMulInto slice too short")
	}
	parallel.ForGrain(m, rowGrain(k, n), func(lo, hi int) {
		if !accumulate {
			clear(dst[lo*n : hi*n])
		}
		for jb := 0; jb < n; jb += mmBlockN {
			jn := n - jb
			if jn > mmBlockN {
				jn = mmBlockN
			}
			for pb := 0; pb < k; pb += mmBlockK {
				pk := k - pb
				if pk > mmBlockK {
					pk = mmBlockK
				}
				for i := lo; i < hi; i++ {
					ci := dst[i*n+jb : i*n+jb+jn]
					ai := a[i*k+pb : i*k+pb+pk]
					for p, av := range ai {
						if av == 0 {
							continue
						}
						row := (pb + p) * n
						axpy(av, b[row+jb:row+jb+jn], ci)
					}
				}
			}
		}
	})
}

// MatMulTransAInto computes dst = Aᵀ·B (or += when accumulate) for A
// [k,m], B [k,n], dst [m,n]. Used for weight gradients. Parallel over
// output rows; tiled over n so a chunk's dst panel stays cached while B
// streams through it.
func MatMulTransAInto(dst, a, b []float32, k, m, n int, accumulate bool) {
	if len(dst) < m*n || len(a) < k*m || len(b) < k*n {
		panic("tensor: MatMulTransAInto slice too short")
	}
	// Called once per image and strip by the conv backward: a closure handed
	// to the scheduler is a heap object whether or not it reaches a worker.
	grain := rowGrain(k, n)
	if ranges, _ := parallel.Split(m, grain); ranges == 1 {
		matMulTransARows(dst, a, b, m, n, k, accumulate, 0, m)
	} else {
		parallel.ForGrain(m, grain, func(lo, hi int) { matMulTransARows(dst, a, b, m, n, k, accumulate, lo, hi) })
	}
}

// matMulTransARows computes rows [lo, hi) of MatMulTransAInto's dst.
func matMulTransARows(dst, a, b []float32, m, n, k int, accumulate bool, lo, hi int) {
	if !accumulate {
		clear(dst[lo*n : hi*n])
	}
	for jb := 0; jb < n; jb += mmBlockN {
		jn := n - jb
		if jn > mmBlockN {
			jn = mmBlockN
		}
		for p := 0; p < k; p++ {
			ap := a[p*m : p*m+m]
			bp := b[p*n+jb : p*n+jb+jn]
			for i := lo; i < hi; i++ {
				if av := ap[i]; av != 0 {
					axpy(av, bp, dst[i*n+jb:i*n+jb+jn])
				}
			}
		}
	}
}

// MatMulTransBInto computes dst = A·Bᵀ (or += when accumulate) for A
// [m,k], B [n,k], dst [m,n]. Used for input gradients and fully connected
// layers. Both operands are traversed along contiguous rows, so each
// element is one dot product; B rows are processed in blocks that stay
// cached across a chunk's rows of A.
func MatMulTransBInto(dst, a, b []float32, m, k, n int, accumulate bool) {
	if len(dst) < m*n || len(a) < m*k || len(b) < n*k {
		panic("tensor: MatMulTransBInto slice too short")
	}
	parallel.ForGrain(m, rowGrain(k, n), func(lo, hi int) {
		for jb := 0; jb < n; jb += mmDotBlock {
			jn := n - jb
			if jn > mmDotBlock {
				jn = mmDotBlock
			}
			for i := lo; i < hi; i++ {
				ai := a[i*k : i*k+k]
				ci := dst[i*n+jb : i*n+jb+jn]
				for j := 0; j < jn; j++ {
					row := (jb + j) * k
					s := dot(ai, b[row:row+k])
					if accumulate {
						ci[j] += s
					} else {
						ci[j] = s
					}
				}
			}
		}
	})
}
