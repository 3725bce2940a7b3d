//go:build !amd64

package tensor

// spanRoutines lists the vector span routines: none off amd64, where
// convSpan runs the generic kernel.
func spanRoutines() []spanRoutine { return nil }

// lowerRoutines lists the vector lowering routines: none off amd64.
func lowerRoutines() []lowerRoutine { return nil }
