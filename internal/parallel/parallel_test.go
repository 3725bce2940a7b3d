package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		seen := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForGrainCoversRangeExactly(t *testing.T) {
	f := func(n uint16) bool {
		total := int64(0)
		ForGrain(int(n), DefaultGrain, func(lo, hi int) {
			if lo < 0 || hi > int(n) || lo > hi {
				t.Fatalf("bad chunk [%d, %d) for n=%d", lo, hi, n)
			}
			atomic.AddInt64(&total, int64(hi-lo))
		})
		return total == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForGrainNonOverlapping(t *testing.T) {
	n := 10000
	seen := make([]int32, n)
	ForGrain(n, DefaultGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestNegativeAndZeroAreNoOps(t *testing.T) {
	called := false
	ForGrain(0, DefaultGrain, func(lo, hi int) { called = true })
	ForGrain(-5, DefaultGrain, func(lo, hi int) { called = true })
	if called {
		t.Fatal("callback invoked for empty range")
	}
}
