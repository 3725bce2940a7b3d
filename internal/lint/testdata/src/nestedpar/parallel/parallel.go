// Package parallel stubs the worker-pool loops for the nestedpar golden
// tests: the analyzer matches by package and function name only.
package parallel

// For runs body for each index.
func For(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// ForGrain runs body over index ranges of at least grain indices.
func ForGrain(n, grain int, body func(lo, hi int)) {
	_ = grain
	body(0, n)
}
