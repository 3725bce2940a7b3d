package tensor

// Arena hands out the activation and gradient tensors of one model's
// passes and takes them back, so that a pass over shapes the previous pass
// already saw allocates and zeroes nothing: a request is served by a buffer
// of exactly its size that is not in use, and only when there is none does
// the arena go to the heap. It belongs to one goroutine at a time and is
// never shared between models.
//
// A tensor from New is valid until it is handed to Free or until the next
// Reset, whichever comes first; after that its memory belongs to whoever
// asks next.
//
// Retention is one rule: Reset drops every buffer that went unused since
// the Reset before it. So the arena never holds more than the buffers of the
// pass in progress plus those of the pass before it, Reset brings that down
// to the latter alone, and a run of passes over the same shapes holds
// exactly what one of them has in use at once — a burst of large batches is
// given back to the collector one pass after it ends.
//
// The zero value is an empty arena. A nil *Arena is no arena at all: New
// allocates, Free and Reset do nothing — what a layer built outside a model
// runs on.
type Arena struct {
	bufs  []*Tensor // every buffer owned, in any state
	bytes int
}

// The states of a buffer an arena owns.
const (
	arenaIdle = iota // not handed out since the last Reset
	arenaFree        // handed out since the last Reset and given back
	arenaLive        // handed out
)

// New returns a tensor of the given shape whose contents are unspecified:
// a caller that accumulates into it clears it first, one that writes every
// element need not. On a nil arena it is tensor.New.
func (a *Arena) New(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := checkedNumel(shape)
	var t *Tensor
	for _, b := range a.bufs {
		if len(b.Data) != n || b.state == arenaLive {
			continue
		}
		t = b
		if b.state == arenaFree {
			break // prefer a buffer this pass has touched: it is the warm one, and the idle one can go
		}
	}
	if t == nil {
		t = &Tensor{Data: make([]float32, n), arena: a}
		a.bufs = append(a.bufs, t)
		a.bytes += 4 * n
	}
	t.state = arenaLive
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Free takes t back before the next Reset: its last reader has run. A nil
// tensor, a tensor the arena does not own — a caller's input, a Reshape
// view — and one it already has back are ignored.
func (a *Arena) Free(t *Tensor) {
	if a != nil && t != nil && t.arena == a && t.state == arenaLive {
		t.state = arenaFree
	}
}

// Reset takes back everything handed out since the last Reset and drops
// what went unused between the two.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	kept := a.bufs[:0]
	for _, b := range a.bufs {
		if b.state == arenaIdle {
			a.bytes -= 4 * len(b.Data) // dropped; a stale Free finds it idle and leaves it
			continue
		}
		b.state = arenaIdle
		kept = append(kept, b)
	}
	clear(a.bufs[len(kept):])
	a.bufs = kept
}

// Bytes returns the size of every buffer the arena holds, handed out or
// not.
func (a *Arena) Bytes() int {
	if a == nil {
		return 0
	}
	return a.bytes
}
