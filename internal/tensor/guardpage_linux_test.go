//go:build linux

package tensor

import (
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardPaged returns n ≥ 1 float32s laid flush against a page no access
// is allowed to: the slice ends where that page begins when back is set,
// and starts where one ends otherwise, so touching the element just past
// its end (or just before its start) faults. The mapping lives until t
// ends.
func guardPaged(t testing.TB, n int, back bool) []float32 {
	t.Helper()
	page := os.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, g := range [][]byte{mem[:page], mem[page+data:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
	off := page
	if back {
		off = page + data - 4*n
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[off])), n)
}

// faults runs f and reports whether it touched an address the hardware
// refused, recovered as a panic rather than a crash of the test binary;
// any other panic propagates.
func faults(f func()) (faulted bool) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(interface{ Addr() uintptr }); !ok {
				panic(r)
			}
			faulted = true
		}
	}()
	f()
	return false
}

// TestGuardPagesFault checks the harness itself: one element past either
// end of a guard-paged slice is out of bounds for the hardware too.
func TestGuardPagesFault(t *testing.T) {
	for _, back := range []bool{false, true} {
		s := guardPaged(t, 3, back)
		past := unsafe.Add(unsafe.Pointer(&s[0]), -4)
		if back {
			past = unsafe.Add(unsafe.Pointer(&s[0]), 4*len(s))
		}
		if !faults(func() { _ = *(*float32)(past) }) {
			t.Errorf("back=%v: reading past the slice did not fault", back)
		}
		if faults(func() { s[0], s[len(s)-1] = 1, 2 }) {
			t.Errorf("back=%v: writing inside the slice faulted", back)
		}
	}
}
