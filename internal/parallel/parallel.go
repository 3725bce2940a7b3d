// Package parallel is the repository's compute scheduler: a lazily
// started, persistent pool of worker goroutines that executes
// deterministic fork-join loops for the tensor and layer kernels.
//
// # Scheduling model
//
// Work is always split into contiguous index ranges, so a loop's writes
// are disjoint and its results are bit-identical regardless of how many
// workers execute it — the determinism contract the measured experiments
// (study.Run) rely on. The split is computed from the loop bounds and the
// configured worker count only; which goroutine runs which range is
// irrelevant to the result.
//
// Chunks are handed to pool workers by non-blocking rendezvous: a chunk is
// either accepted by a worker that is idle right now or runs inline on the
// caller. This bounds concurrency by the pool size with no task queue to
// deadlock on, and it is also the nested-parallelism guard: a loop issued
// from inside a pool worker (e.g. a matmul under a per-image convolution
// loop) finds no idle workers and degrades to inline execution instead of
// oversubscribing the machine.
//
// # Grain semantics
//
// The grain is the smallest number of consecutive indices worth scheduling
// as one unit; n indices are split into at most ceil(n/grain) ranges
// (never more than the worker count). Coarse loops whose per-index work is
// itself heavy — one image of a convolution, one channel of a BatchNorm —
// use grain 1 so that even a batch of 2 uses 2 workers. Fine element-wise
// loops keep a large grain (DefaultGrain) so scheduling overhead cannot
// dominate. Split is the one definition of that division; ForGrain runs
// what it returns.
//
// # Sizing
//
// The pool is sized by SetWorkers, else from GOMAXPROCS at first use.
// Sizing is sticky: later GOMAXPROCS changes are ignored (use SetWorkers,
// which exists for tests and device-simulation fidelity, to resize).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the grain used by ForChunked: the smallest number of
// consecutive indices of a fine element-wise loop worth scheduling as one
// unit.
const DefaultGrain = 64

type task struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

// pool is a fixed set of worker goroutines. A worker deposits an idle
// token before each task receive; submitters must take a token before
// sending, so every send is matched to a worker that is (or is about to
// be) blocked receiving, and the buffered task channel can never fill.
type pool struct {
	size  int
	tasks chan task
	idle  chan struct{}
}

func (p *pool) worker() {
	for {
		p.idle <- struct{}{}
		t, ok := <-p.tasks
		if !ok {
			return
		}
		t.fn(t.lo, t.hi)
		t.wg.Done()
	}
}

// trySubmit hands t to an idle worker, or reports false if none is
// available right now (including when called from inside a worker while
// the pool is saturated — the nested-oversubscription case).
func (p *pool) trySubmit(t task) bool {
	select {
	case <-p.idle:
	default:
		return false
	}
	p.tasks <- t
	return true
}

var (
	mu       sync.Mutex           // guards pool creation and SetWorkers
	cur      atomic.Pointer[pool] // nil until first use or after SetWorkers
	override int                  // 0 means auto-size
)

// get returns the current pool, starting it on first use. The loaded
// pointer is the fast path: every kernel launch — including the nested
// ones issued concurrently by pool workers — goes through here, so it
// must not contend on a lock.
func get() *pool {
	if p := cur.Load(); p != nil {
		return p
	}
	return getSlow()
}

func getSlow() *pool {
	mu.Lock()
	defer mu.Unlock()
	if p := cur.Load(); p != nil {
		return p
	}
	size := override
	if size == 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &pool{size: size}
	if size > 1 {
		p.tasks = make(chan task, size)
		p.idle = make(chan struct{}, size)
		for i := 0; i < size; i++ {
			go p.worker()
		}
	}
	cur.Store(p)
	return p
}

// Workers returns the scheduler's parallelism width: the number of worker
// goroutines loop bodies may execute on (1 means loops run inline).
// Calling it starts the pool if it is not running yet.
func Workers() int { return get().size }

// SetWorkers resizes the pool to exactly n workers (n <= 0 restores
// auto-sizing). Tests, benchmarks and ttaserve's -workers flag pin the
// kernel width with it regardless of the host. It must not be called
// concurrently with active loops.
func SetWorkers(n int) {
	mu.Lock()
	defer mu.Unlock()
	if n < 0 {
		n = 0
	}
	override = n
	if p := cur.Load(); p != nil && p.tasks != nil {
		close(p.tasks)
	}
	cur.Store(nil)
}

// For runs fn(i) for every i in [0, n). It is the coarse-loop entry point:
// each index may carry heavy work (an image, a channel), so the split uses
// grain 1. fn must be safe to call concurrently for distinct i.
func For(n int, fn func(i int)) {
	ForGrain(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked splits [0, n) into at most ceil(n/DefaultGrain) contiguous
// ranges (the grain bounds the number of splits, not the minimum range
// size) and runs fn(lo, hi) for each range concurrently. It is the fine
// element-wise entry point. fn must be safe to call concurrently for
// non-overlapping ranges.
func ForChunked(n int, fn func(lo, hi int)) {
	ForGrain(n, DefaultGrain, fn)
}

// Split returns how ForGrain(n, grain, …) divides [0, n): into ranges
// contiguous ranges — at most ceil(n/grain) and at most Workers() — of span
// indices each, the last possibly shorter, range i starting at i*span. A
// loop that needs a buffer per range draws that many before it forks, and
// the body handed [lo, hi) owns buffer lo/span. One range is run by the
// caller as fn(0, n), so a kernel that wants to spare the closure asks
// first and calls its body directly; an empty loop has none.
func Split(n, grain int) (ranges, span int) {
	if n <= 0 {
		return 0, 0
	}
	grain = max(grain, 1)
	w := min(get().size, (n+grain-1)/grain)
	if w <= 1 {
		return 1, n
	}
	span = (n + w - 1) / w
	return (n + span - 1) / span, span
}

// ForGrain runs fn(lo, hi) for each range of Split(n, grain) concurrently,
// the caller executing the ranges no idle worker accepts.
// fn must be safe to call concurrently for non-overlapping ranges, and its
// writes for a given index must not depend on the range boundaries — the
// package promises bit-identical results for every worker count.
func ForGrain(n, grain int, fn func(lo, hi int)) {
	ranges, span := Split(n, grain)
	if ranges <= 1 {
		if ranges == 1 {
			fn(0, n)
		}
		return
	}
	p := get()
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += span {
		hi := lo + span
		if hi >= n {
			// The caller keeps the final range for itself so it works
			// instead of idling while the pool drains.
			fn(lo, n)
			break
		}
		wg.Add(1)
		if !p.trySubmit(task{fn, lo, hi, &wg}) {
			fn(lo, hi)
			wg.Done()
		}
	}
	wg.Wait()
}
