//go:build linux

// Package guardpage lays test operands flush against pages no access is
// allowed to, so that a vector routine reading or writing one element
// outside its operands faults instead of passing silently. Tests of the
// assembly in internal/tensor and internal/data share it.
package guardpage

import (
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// Floats returns n ≥ 1 float32s laid flush against a page no access is
// allowed to: the slice ends where that page begins when back is set, and
// starts where one ends otherwise, so touching the element just past its
// end (or just before its start) faults. The mapping lives until t ends.
func Floats(t testing.TB, n int, back bool) []float32 {
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

// Faults runs f and reports whether it touched an address the hardware
// refused, recovered as a panic rather than a crash of the test binary;
// any other panic propagates.
func Faults(f func()) (faulted bool) {
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

// NoFault reports a fault in f as a failure of the case named what.
func NoFault(t testing.TB, what string, f func()) {
	t.Helper()
	if Faults(f) {
		t.Errorf("%s: touched memory outside its operands", what)
	}
}
