package tensor

import (
	"fmt"

	"edgetta/internal/parallel"
)

// Cache-blocking parameters of MatMulInto. A B panel is mmBlockK×mmBlockN
// floats (≤128KB), sized to stay resident in L2 while it is reused across
// every output row of a chunk; one panel row (≤1KB) and the C segments it
// updates live in L1. Tile boundaries never change the order in which a
// given output element accumulates its k products (always ascending p), so
// the tiled kernel is bit-identical to the untiled i-k-j loop, for every
// tile size and worker count.
const (
	mmBlockN = 256
	mmBlockK = 128
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
// [k,m], B [k,n], dst [m,n]: Linear's weight gradient. Parallel over output
// rows; each accumulates its k products in ascending order.
func MatMulTransAInto(dst, a, b []float32, k, m, n int, accumulate bool) {
	if len(dst) < m*n || len(a) < k*m || len(b) < k*n {
		panic("tensor: MatMulTransAInto slice too short")
	}
	parallel.ForGrain(m, rowGrain(k, n), func(lo, hi int) {
		if !accumulate {
			clear(dst[lo*n : hi*n])
		}
		for p := 0; p < k; p++ {
			for i := lo; i < hi; i++ {
				if av := a[p*m+i]; av != 0 {
					axpy(av, b[p*n:(p+1)*n], dst[i*n:(i+1)*n])
				}
			}
		}
	})
}

// MatMulTransBInto computes dst = A·Bᵀ (or += when accumulate) for A
// [m,k], B [n,k], dst [m,n]: Linear's forward. Both operands are traversed
// along contiguous rows, so each element is one dot product.
func MatMulTransBInto(dst, a, b []float32, m, k, n int, accumulate bool) {
	if len(dst) < m*n || len(a) < m*k || len(b) < n*k {
		panic("tensor: MatMulTransBInto slice too short")
	}
	parallel.ForGrain(m, rowGrain(k, n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				s := dot(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
				if accumulate {
					dst[i*n+j] += s
				} else {
					dst[i*n+j] = s
				}
			}
		}
	})
}
