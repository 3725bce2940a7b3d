package tensor

// Arena hands out the activation and gradient tensors of one model's
// passes and takes them back, so that a pass over shapes the previous pass
// already saw allocates and zeroes nothing: a request is served by a buffer
// of exactly its size that is not in use, and only when there is none does
// the arena go to the heap. It belongs to one goroutine at a time and is
// never shared between models.
//
// A tensor from New is valid until it is released or until the next Reset,
// whichever comes first; after that its memory belongs to whoever asks
// next. Two parties decide the release. The maker — the layer or block
// that drew the tensor — hands it to Free after its last forward reader.
// A reader that will need it again later, in a backward pass, Holds it
// first and Unholds it once done. A tensor is released when it has been
// freed and the last hold is gone, whichever comes second; a pass in which
// nobody holds anything releases every tensor at its Free.
//
// Retention is one rule: Reset drops every buffer that went unused since
// the Reset before it. So the arena never holds more than the buffers of the
// pass in progress plus those of the pass before it, Reset brings that down
// to the latter alone, and a run of passes over the same shapes holds
// exactly what one of them has in use at once — a burst of large batches is
// given back to the collector one pass after it ends.
//
// The zero value is an empty arena. A nil *Arena is no arena at all: New
// allocates, Free, Hold, Unhold and Reset do nothing — what a layer built
// outside a model runs on.
type Arena struct {
	bufs  []*Tensor // every buffer owned, in any state
	bytes int

	// onRelease, when set, is handed each buffer's memory the moment the
	// buffer is released during a pass. Nothing in the package sets it: it
	// is the hook a test uses to poison what was given back.
	onRelease func([]float32)
}

// The states of a buffer an arena owns.
const (
	arenaIdle = iota // not handed out since the last Reset
	arenaFree        // handed out since the last Reset and released
	arenaLive        // handed out
	arenaHeld        // freed by its maker, waiting for its last Unhold
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
		if len(b.Data) != n || b.state >= arenaLive {
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

// Free is the maker's release of t: its last forward reader has run. While
// t is held the release waits for the last Unhold. A nil tensor, a tensor
// the arena does not own — a caller's input — and one it already has back
// are ignored.
func (a *Arena) Free(t *Tensor) {
	if a == nil || t == nil || t.arena != a || t.state != arenaLive {
		return
	}
	if t.holds > 0 {
		t.state = arenaHeld
		return
	}
	a.release(t)
}

// Hold keeps t from being released until a matching Unhold: its holder
// reads it again later in the pass. A tensor the arena does not own or no
// longer has out is ignored.
func (a *Arena) Hold(t *Tensor) {
	if t = a.owned(t); t != nil && t.state >= arenaLive {
		t.holds++
	}
}

// Unhold drops one Hold of t, releasing it if that was the last and its
// maker has freed it. An Unhold without a Hold is ignored.
func (a *Arena) Unhold(t *Tensor) {
	t = a.owned(t)
	if t == nil || t.holds == 0 {
		return
	}
	if t.holds--; t.holds == 0 && t.state == arenaHeld {
		a.release(t)
	}
}

// owned returns t when it is a buffer of a's, else nil.
func (a *Arena) owned(t *Tensor) *Tensor {
	if a == nil || t == nil || t.arena != a {
		return nil
	}
	return t
}

func (a *Arena) release(t *Tensor) {
	t.state = arenaFree
	if a.onRelease != nil {
		a.onRelease(t.Data)
	}
}

// Reset takes back everything handed out since the last Reset, held or
// not, and drops what went unused between the two.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	kept := a.bufs[:0]
	for _, b := range a.bufs {
		b.holds = 0
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
