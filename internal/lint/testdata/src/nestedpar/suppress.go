// Suppression-hygiene cases: a justified suppression consumes its finding
// silently; unjustified, unknown-analyzer, and stale suppressions are
// themselves findings.
package nestedpar

import "edgetta/internal/lint/testdata/src/nestedpar/parallel"

// justified nests on purpose, so the finding is suppressed with a
// justification — standalone form, covering the next line.
func justified(n int, out []float32) {
	parallel.For(n, func(i int) {
		//ttalint:ok nestedpar the inner loop is the fallback when the outer runs inline
		parallel.For(n, func(j int) { out[i*n+j] = 5 })
	})
}

// justifiedInline is the same case in end-of-line form.
func justifiedInline(n int, out []float32) {
	parallel.For(n, func(i int) {
		parallel.For(n, func(j int) { out[i*n+j] = 6 }) //ttalint:ok nestedpar the inner loop is the fallback when the outer runs inline
	})
}

// hygiene holds the malformed suppressions the framework must flag.
func hygiene() {
	//ttalint:ok nestedpar
	// wantup "needs a justification"
	//ttalint:ok nosuch not a real analyzer name
	// wantup "unknown analyzer"
	//ttalint:ok nestedpar nothing on the next line needs suppressing
	// wantup "stale suppression"
}
