// Suppression-hygiene cases: a justified suppression consumes its finding
// silently; unjustified, unknown-analyzer, and stale suppressions are
// themselves findings.
package scratchpair

import "edgetta/internal/lint/testdata/src/scratchpair/tensor"

// transfer hands ownership to the caller — a real leak by this scope's
// accounting, so the finding is suppressed with a justification —
// standalone form, covering the next line.
func transfer(n int) []float32 {
	//ttalint:ok scratchpair caller owns the buffer and must PutScratch it
	buf := tensor.GetScratch(n)
	return buf
}

// transferInline is the same case in end-of-line form.
func transferInline(n int) []float32 {
	buf := tensor.GetScratch(n) //ttalint:ok scratchpair caller owns the buffer and must PutScratch it
	return buf
}

// hygiene holds the malformed suppressions the framework must flag.
func hygiene() {
	//ttalint:ok scratchpair
	// wantup "needs a justification"
	//ttalint:ok nosuch not a real analyzer name
	// wantup "unknown analyzer"
	//ttalint:ok scratchpair nothing on the next line needs suppressing
	// wantup "stale suppression"
}
