package parallel

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func gid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := strings.Fields(string(buf[:n]))
	id, _ := strconv.ParseInt(fields[1], 10, 64)
	return id
}

// A coarse per-image loop over a batch of 8 must engage more than one
// worker: a split computed as n/minChunk truncates to 0 for n < 64 and
// runs it on exactly one goroutine.
func TestForGrainUsesMultipleWorkersForSmallN(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var mu sync.Mutex
		ids := map[int64]bool{}
		ForGrain(8, 1, func(lo, hi int) {
			mu.Lock()
			ids[gid()] = true
			mu.Unlock()
			time.Sleep(2 * time.Millisecond) // hold the range so workers overlap
		})
		if len(ids) > 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("ForGrain(8, 1, ...) never executed on more than one goroutine")
		}
	}
}

func TestForGrainSplitsSmallNIntoUnitRanges(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	var mu sync.Mutex
	var ranges [][2]int
	ForGrain(8, 1, func(lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(ranges) != 8 {
		t.Fatalf("ForGrain(8, 1) produced %d ranges %v, want 8 unit ranges", len(ranges), ranges)
	}
	covered := 0
	for _, r := range ranges {
		covered += r[1] - r[0]
	}
	if covered != 8 {
		t.Fatalf("ranges %v cover %d indices, want 8", ranges, covered)
	}
}

func TestForGrainRespectsGrain(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	// The grain caps the number of splits at ceil(n/grain), keeping
	// scheduling overhead bounded for fine loops: ceil(100/64) = 2.
	var calls int32
	ForGrain(100, DefaultGrain, func(lo, hi int) {
		atomic.AddInt32(&calls, 1)
	})
	if c := atomic.LoadInt32(&calls); c > 2 {
		t.Fatalf("ForGrain(100, %d) used %d ranges, want at most 2", DefaultGrain, c)
	}
	// And a loop smaller than one grain must run as a single range.
	calls = 0
	ForGrain(63, DefaultGrain, func(lo, hi int) {
		atomic.AddInt32(&calls, 1)
	})
	if c := atomic.LoadInt32(&calls); c != 1 {
		t.Fatalf("ForGrain(63, %d) used %d ranges, want 1", DefaultGrain, c)
	}
}

func TestNestedLoopsCompleteAndCover(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	var total int64
	For(8, func(i int) {
		ForGrain(100, 1, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
	})
	if total != 800 {
		t.Fatalf("nested loops covered %d inner indices, want 800", total)
	}
}

func TestSetWorkersAndWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", w)
	}
	SetWorkers(1)
	if w := Workers(); w != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(1)", w)
	}
	// Loops must still work with a single (inline) worker.
	var total int64
	ForGrain(10, 1, func(lo, hi int) { atomic.AddInt64(&total, int64(hi-lo)) })
	if total != 10 {
		t.Fatalf("single-worker ForGrain covered %d, want 10", total)
	}
	SetWorkers(0)
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d after reset, want >= 1", w)
	}
}

// TestSplitIsForGrainsSplit: Split answers for ForGrain — how many ranges,
// which per-range buffer lo/span a body owns, and whether the one range is
// run by the caller — so what it returns must be what ForGrain does.
func TestSplitIsForGrainsSplit(t *testing.T) {
	defer SetWorkers(0)
	for _, workers := range []int{1, 2, 8} {
		SetWorkers(workers)
		for _, n := range []int{-1, 0, 1, 2, 5, 7, 9, 64, 100} {
			for _, grain := range []int{0, 1, 4, 64, 100} {
				ranges, span := Split(n, grain)
				owned := make([]atomic.Int32, ranges)
				caller := gid()
				var left atomic.Bool
				ForGrain(n, grain, func(lo, hi int) {
					if lo%span != 0 || hi != min(lo+span, n) {
						t.Errorf("workers=%d n=%d grain=%d: range [%d, %d) is not one of span %d", workers, n, grain, lo, hi, span)
						return
					}
					owned[lo/span].Add(1)
					if gid() != caller {
						left.Store(true)
					}
				})
				for i := range owned {
					if c := owned[i].Load(); c != 1 {
						t.Errorf("workers=%d n=%d grain=%d: buffer %d of %d had %d owners", workers, n, grain, i, ranges, c)
					}
				}
				if ranges == 1 && left.Load() {
					t.Errorf("workers=%d n=%d grain=%d: the one range left the caller's goroutine", workers, n, grain)
				}
			}
		}
	}
}

func TestForGrainCoversExactlyOnceUnderManyWorkers(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	for _, n := range []int{1, 2, 7, 8, 9, 63, 64, 65, 1000} {
		seen := make([]int32, n)
		ForGrain(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}
