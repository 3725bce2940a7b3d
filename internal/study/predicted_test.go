package study

import (
	"math"
	"testing"
)

// TestFifo holds the deadline queue behind Deadlines to hand-derived
// outcomes. With one arrival every period and a fixed service time, batch
// i (1-based) is ready at i·period. When svc ≤ period it completes svc
// later; when svc > period the processor never idles after the first
// arrival, so batch i completes at period + i·svc and waits
// period + i·(svc − period) in all. Wall time runs to the last completion.
func TestFifo(t *testing.T) {
	const busyW, idleW = 9.4, 3.0
	for _, tc := range []struct {
		name                  string
		period, svc, deadline float64
		n                     int
		misses                int
		wall                  float64
	}{
		// 30 FPS in batches of 50: a batch every 1.67 s, served in 0.3 s.
		{"stable stream meets deadlines", 50.0 / 30, 0.3, 0.5, 60, 0, 100 + 0.3},
		// Every quantity is exact in binary, so the wait equals the
		// deadline to the bit and must not count as a miss.
		{"service equal to the deadline is met", 2, 0.5, 0.5, 60, 0, 120.5},
		{"service above the deadline misses every batch", 2, 0.6, 0.5, 60, 60, 120.6},
		// svc < deadline, svc > period: the wait 5/3 + 7i/3 passes 20 s at
		// batch 8, so 53 of 60 miss.
		{"overloaded stream misses some batches", 50.0 / 30, 4, 20, 60, 53, 50.0/30 + 60*4},
		// The paper's Sec. IV-E case: 0.315 s per 50-frame batch against a
		// 0.5 s deadline. At 30 FPS the processor idles between batches.
		{"paper headline at 30 FPS is feasible", 50.0 / 30, 0.315, 0.5, 60, 0, 100 + 0.315},
		// At 300 FPS the wait 1/6 + 0.14833·i passes 0.5 s at batch 3.
		{"paper headline at 300 FPS misses", 50.0 / 300, 0.315, 0.5, 60, 58, 50.0/300 + 60*0.315},
	} {
		t.Run(tc.name, func(t *testing.T) {
			miss, energy := fifo(tc.period, tc.svc, tc.deadline, tc.n, busyW, idleW)
			if want := float64(tc.misses) / float64(tc.n); miss != want {
				t.Errorf("miss rate = %v, want %d/%d", miss, tc.misses, tc.n)
			}
			busy := float64(tc.n) * tc.svc
			want := busy*busyW + (tc.wall-busy)*idleW
			if math.Abs(energy-want) > 1e-9*want {
				t.Errorf("energy = %v J, want %v J (busy %v s, wall %v s)", energy, want, busy, tc.wall)
			}
		})
	}
}
