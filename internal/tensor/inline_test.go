package tensor

import (
	"sync/atomic"
	"testing"

	"edgetta/internal/parallel"
)

// TestRunsInlineMatchesTheScheduler: runsInline restates parallel.ForGrain's
// own decision — one range, run by the caller — so that a kernel can skip
// building the closure; the two must not drift apart.
func TestRunsInlineMatchesTheScheduler(t *testing.T) {
	defer parallel.SetWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		parallel.SetWorkers(workers)
		for _, n := range []int{1, 2, 7, 64} {
			for _, grain := range []int{1, 4, 64, 100} {
				var ranges atomic.Int32
				parallel.ForGrain(n, grain, func(lo, hi int) { ranges.Add(1) })
				if got, want := runsInline(n, grain), ranges.Load() == 1; got != want {
					t.Errorf("workers=%d n=%d grain=%d: runsInline = %v, ForGrain made %d range(s)", workers, n, grain, got, ranges.Load())
				}
			}
		}
	}
}
