//go:build !amd64

package tensor

// spanRoutines lists the vector span routines: none off amd64, where
// convSpan runs the generic kernel.
func spanRoutines() []spanRoutine { return nil }
