//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what is
// put into it, so the kernels' scratch buffers are allocated again and a
// byte bound on a steady-state batch means nothing.
const raceEnabled = true
