// Package nestedpar exercises the nested-parallel-loop analyzer: a
// parallel loop syntactically inside another parallel body literal runs
// inline and buys no parallelism.
package nestedpar

import "edgetta/internal/lint/testdata/src/nestedpar/parallel"

// nested is the basic oversubscription-by-construction shape.
func nested(n int, out []float32) {
	parallel.For(n, func(i int) {
		parallel.For(n, func(j int) { // want "nested syntactically"
			out[i*n+j] = 0
		})
	})
}

// deep nesting is reported once per inner call, across both loops.
func deep(n int, out []float32) {
	parallel.ForGrain(n, 8, func(lo, hi int) {
		parallel.ForGrain(hi-lo, 4, func(a, b int) { // want "nested syntactically"
			parallel.For(b-a, func(j int) { // want "nested syntactically"
				out[(lo+a)*n+j] = 1
			})
		})
	})
}

// sequential loops at the same level are fine.
func sequential(n int, out []float32) {
	parallel.For(n, func(i int) { out[i] = 2 })
	parallel.For(n, func(i int) { out[i] = 3 })
}

// kernel parallelizes internally; calling it from a parallel body is the
// runtime pool guard's concern, not this analyzer's.
func kernel(n int, out []float32) {
	parallel.For(n, func(i int) { out[i] = 4 })
}

func callsKernel(n int, out []float32) {
	parallel.For(n, func(i int) {
		_ = i
		kernel(n, out)
	})
}
