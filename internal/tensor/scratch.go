package tensor

import (
	"math/bits"
	"sync"
)

// The scratch allocator recycles the large transient float32 buffers the
// kernels need — im2col lowerings, per-group weight-gradient partials —
// so hot paths stop paying an allocation plus a page-clearing memclr per
// call. Buffers are pooled in power-of-two size classes: every buffer in
// class i has capacity exactly 2^(scratchMinBits+i), so a Get never pops
// a buffer it cannot use, and layers of different shapes stop evicting
// each other's buffers the way a single mixed-size pool would.
const (
	scratchMinBits = 8  // smallest class: 256 floats (1KB)
	scratchClasses = 24 // largest class: 2^31 floats; bigger asks bypass pooling
)

// scratchPools hold *[]float32 boxes, and scratchHeaders the boxes emptied
// by a Get until the next Put refills one: putting the slice itself would
// allocate its header on every Put, so a warm Get/Put pair allocates
// nothing.
var (
	scratchPools   [scratchClasses]sync.Pool
	scratchHeaders sync.Pool
)

// scratchClass returns the index of the smallest class with capacity >= n.
func scratchClass(n int) int {
	if n <= 1<<scratchMinBits {
		return 0
	}
	return bits.Len(uint(n-1)) - scratchMinBits
}

// GetScratch returns a float32 buffer of length n. Its contents are
// unspecified: callers that accumulate into the buffer must clear it
// first; callers that overwrite every element need not.
func GetScratch(n int) []float32 {
	if n <= 0 {
		return nil
	}
	c := scratchClass(n)
	if c >= scratchClasses {
		return make([]float32, n)
	}
	if p, _ := scratchPools[c].Get().(*[]float32); p != nil {
		buf := (*p)[:n] // class invariant: cap is 2^(minBits+c) >= n
		*p = nil
		scratchHeaders.Put(p)
		return buf
	}
	return make([]float32, n, 1<<(scratchMinBits+c))
}

// PutScratch recycles a buffer obtained from GetScratch. The caller must
// not use buf afterwards. Buffers whose capacity is not a class size
// (foreign or oversize) are left for the garbage collector.
func PutScratch(buf []float32) {
	c := cap(buf)
	if c == 0 {
		return
	}
	cl := scratchClass(c)
	if cl >= scratchClasses || 1<<(scratchMinBits+cl) != c {
		return
	}
	p, _ := scratchHeaders.Get().(*[]float32)
	if p == nil {
		p = new([]float32)
	}
	*p = buf[:0]
	scratchPools[cl].Put(p)
}
