package tensor

import "testing"

// TestArenaNilAllocates: a nil arena is tensor.New — zero-filled heap
// tensors nobody recycles — and its Free, Reset and Bytes do nothing.
func TestArenaNilAllocates(t *testing.T) {
	var a *Arena
	x := a.New(2, 3)
	if x.Numel() != 6 || x.MaxAbs() != 0 {
		t.Fatalf("nil arena New: %v %v, want a zeroed 2×3", x.Shape(), x.Data)
	}
	x.Fill(1)
	a.Free(x)
	a.Reset()
	if y := a.New(2, 3); &y.Data[0] == &x.Data[0] || y.MaxAbs() != 0 {
		t.Fatal("nil arena recycled a buffer")
	}
	if a.Bytes() != 0 {
		t.Fatalf("nil arena Bytes = %d", a.Bytes())
	}
}

// TestArenaRecyclesExactSizes: a freed or reset buffer serves the next
// request of exactly its size — under the new shape, contents as left — and
// no other; what is still handed out is never handed out twice.
func TestArenaRecyclesExactSizes(t *testing.T) {
	a := new(Arena)
	x := a.New(2, 3)
	x.Fill(7)
	if y := a.New(2, 3); &y.Data[0] == &x.Data[0] {
		t.Fatal("a live buffer was handed out again")
	}
	a.Free(x)
	if y := a.New(5); &y.Data[0] == &x.Data[0] {
		t.Fatal("a 6-element buffer served a 5-element request")
	}
	y := a.New(3, 2)
	if &y.Data[0] != &x.Data[0] || y != x {
		t.Fatal("the freed buffer did not serve the next request of its size")
	}
	if y.Dim(0) != 3 || y.Dim(1) != 2 || y.Data[5] != 7 {
		t.Fatalf("recycled tensor: shape %v data %v, want 3×2 over the old contents", y.Shape(), y.Data)
	}
	a.Reset()
	a.New(6)
	a.New(5)
	a.New(6)
	if got, want := a.Bytes(), 4*(6+6+5); got != want {
		t.Fatalf("Bytes = %d after a pass over the same sizes, want %d: Reset did not take the live buffers back", got, want)
	}
}

// TestArenaFreeIgnoresWhatItDoesNotOwn: nil, a heap tensor, another
// arena's tensor and a second Free of the same tensor change nothing.
func TestArenaFreeIgnoresWhatItDoesNotOwn(t *testing.T) {
	a, b := new(Arena), new(Arena)
	x := a.New(4)
	a.Free(nil)
	a.Free(New(4))
	b.Free(x)
	if y := a.New(4); y == x {
		t.Fatal("a Free the arena should have ignored released the buffer")
	}
	a.Free(x)
	y := a.New(4)
	if y != x {
		t.Fatal("the owner's Free did not release the buffer")
	}
	a.Free(x) // x is y, live again: this one counts
	a.Free(x) // and this one is the double
	if z, w := a.New(4), a.New(4); z == w {
		t.Fatal("a double Free put one buffer on offer twice")
	}
}

// TestArenaResetDropsTheUnused pins the retention rule of the Arena doc
// comment: Reset drops what went unused since the Reset before it, so the
// arena holds at most the last two passes' buffers, and a burst is gone one
// pass after it ends.
func TestArenaResetDropsTheUnused(t *testing.T) {
	a := new(Arena)
	pass := func(n int) {
		a.Reset()
		a.New(n)
		a.Free(a.New(n + 1)) // given back early still counts as used
	}
	small, big := 4*(10+11), 4*(1000+1001)
	pass(10)
	if a.Bytes() != small {
		t.Fatalf("after a small pass: %d bytes, want %d", a.Bytes(), small)
	}
	pass(1000)
	if a.Bytes() != small+big {
		t.Fatalf("during the pass after: %d bytes, want %d", a.Bytes(), small+big)
	}
	pass(1000)
	if a.Bytes() != big {
		t.Fatalf("a second big pass: %d bytes, want %d (the small buffers dropped)", a.Bytes(), big)
	}
	pass(10)
	pass(10)
	if a.Bytes() != small {
		t.Fatalf("one pass after the burst: %d bytes, want %d", a.Bytes(), small)
	}
	// A dropped buffer is no longer the arena's: a stale Free must not put
	// it back on offer.
	x := a.New(77)
	a.Reset()
	a.Reset()
	a.Free(x)
	if y := a.New(77); y == x {
		t.Fatal("a dropped buffer came back through a stale Free")
	}
}

// TestArenaSteadyStateAllocatesNothing: a pass over shapes the previous
// pass saw — header, shape and data — comes entirely from the arena.
func TestArenaSteadyStateAllocatesNothing(t *testing.T) {
	a := new(Arena)
	pass := func() {
		a.Reset()
		x := a.New(2, 3, 4, 5)
		y := a.New(2, 3, 4, 5)
		a.Free(x)
		a.New(6, 20)
		a.Free(y)
		a.New(7)
	}
	pass()
	if got := testing.AllocsPerRun(100, pass); got != 0 {
		t.Fatalf("a steady-state pass allocates %v times, want 0", got)
	}
}

// TestArenaHoldDefersRelease: a held tensor that its maker frees goes back
// at the last Unhold, not before; two Holds need two Unholds; Unhold
// without a Hold, and of what the arena does not own,
// changes nothing; Reset takes back held tensors too; and the release hook
// sees a buffer exactly when it is released.
func TestArenaHoldDefersRelease(t *testing.T) {
	a := new(Arena)
	var released []*float32
	a.onRelease = func(d []float32) { released = append(released, &d[0]) }
	x := a.New(2, 3)
	a.Hold(x)
	a.Hold(x) // a second holder
	a.Free(x)
	if y := a.New(6); y == x || len(released) != 0 {
		t.Fatal("a held tensor was released at its maker's Free")
	}
	a.Unhold(x)
	a.Unhold(New(6)) // not the arena's
	if y := a.New(6); y == x || len(released) != 0 {
		t.Fatal("a tensor with a Hold left was released")
	}
	a.Unhold(x)
	if len(released) != 1 || released[0] != &x.Data[0] {
		t.Fatalf("the last Unhold released %d buffers, want x's alone", len(released))
	}
	if y := a.New(2, 3); y != x {
		t.Fatal("the released tensor did not serve the next request of its size")
	}
	a.Unhold(x) // no Hold left: ignored, x stays live
	if y := a.New(6); y == x {
		t.Fatal("an Unhold without a Hold released a live tensor")
	}

	z := a.New(5)
	a.Hold(z)
	a.Unhold(z) // held and unheld before the maker is done: still live
	if w := a.New(5); w == z {
		t.Fatal("an Unhold released a tensor its maker had not freed")
	}
	a.Hold(z)
	a.Reset()
	if z.holds != 0 || z.state != arenaIdle {
		t.Fatal("Reset did not take back a held tensor")
	}
}
