// Package lifecycle decides what one served stream may do next. It is the
// single owner of a stream's sequence position, in-flight gate, outstanding
// count, closing flag, replay slot and checkpoint cadence: a Cursor holds
// them, one method per event moves them, and each method answers with a
// small verdict the caller acts on. The package is pure — no locks, clocks,
// contexts, goroutines or channels, and no imports from this module — so
// the serving shell (internal/serve, which calls every method under its
// group mutex) cannot assign these fields, and the table in the tests is the
// reference model a simulation can run the real server against.
//
// # State
//
//	applied      highest sequence number whose batch reached the stream's state
//	admitted     highest reserved position; applied ≤ admitted always
//	busy         a replica holds the stream's one in-flight batch
//	outstanding  admitted-but-undelivered requests (queued + in flight)
//	closing      Close was called; nothing new is accepted
//	replay       the response of the last applied sequenced batch
//
// # Events
//
//	event                 precondition             effect                             answer
//	Submit(0)             open                     —                                  Admit
//	Submit(s)             s = admitted+1           admitted = s                       Admit
//	Submit(s)             s = replay seq ≤ applied —                                  Replay (Replayed)
//	Submit(s)             applied < s ≤ admitted   —                                  Wait, then Submit again
//	Submit(s)             anything else            —                                  Gap, expect admitted+1
//	Submit(·)             closing                  —                                  Closed
//	AdmissionFailed(s)    s was reserved           admitted = s−1                     Cut: queued > s die
//	Enqueued()            after Admit              outstanding++                      —
//	CancelQueued(s)       request was queued       outstanding−−, admitted = s−1      Cut: queued > s die
//	Drop()                request stranded by Cut  outstanding−−                      —
//	Dispatch(s)           !busy, s ∈ {0,applied+1} busy                               ok, checkpoint due
//	Commit(s, r)          dispatched               !busy, outstanding−−, applied = s, —
//	                                               replay = (s, r)
//	Fault()               dispatched               !busy, outstanding−−,              Cut: every queued dies
//	                                               admitted = applied
//	Resume(s)             just opened              applied = admitted = s             —
//	Close()               —                        closing                            first call?
//	Drained()             —                        —                                  outstanding = 0
//
// Every rollback returns admitted to just below the position that failed,
// so the client's retry of that position is the next one accepted; nothing
// but Commit moves applied or the replay slot, which is what makes a blind
// retry after a fault, a cancel or a shed idempotent.
package lifecycle

// Verdict is Submit's answer.
type Verdict int

const (
	// Admit: the position is reserved (or the request is unsequenced);
	// proceed to admission, then report Enqueued or AdmissionFailed.
	Admit Verdict = iota
	// Replay: a duplicate of the last applied batch; deliver Replayed()
	// without touching the stream's state.
	Replay
	// Wait: a duplicate of a position that is admitted but not settled.
	// Submit again once the stream changes: the original's commit turns
	// this into Replay, its fault into Admit — the duplicate takes over.
	Wait
	// Gap: out of protocol order; fail with the expected sequence number.
	Gap
	// Closed: the stream is closing and accepts nothing.
	Closed
)

// Cut says which of a stream's queued requests an event stranded. The
// caller removes each one Kills names from its queue, reports Drop per
// removal and fails it; ExpectSeq is the number the stream accepts next.
type Cut struct {
	all       bool
	above     uint64
	ExpectSeq uint64
}

// Kills reports whether a queued request of the stream with sequence
// number seq (0 = unsequenced) can no longer be served.
func (c Cut) Kills(seq uint64) bool { return c.all || (c.above > 0 && seq > c.above) }

// Cursor is one stream's lifecycle state; R is the replayed response type.
// The zero value is an open stream with checkpointing off.
type Cursor[R any] struct {
	applied, admitted uint64
	busy, closing     bool
	outstanding       int
	replaySeq         uint64
	replay            R
	// every is the checkpoint cadence in applied batches (0 = never) and
	// count the batches applied since the stream opened or resumed.
	every, count int
}

// Open returns the cursor of a new stream checkpointed every `every`
// applied batches (0 disables).
func Open[R any](every int) Cursor[R] { return Cursor[R]{every: every} }

// Resume installs a checkpoint's sequence number on a just-opened cursor:
// the stream continues at seq+1, and batches the client sent after the
// checkpoint get Gap with that number as the rewind point.
func (c *Cursor[R]) Resume(seq uint64) { c.applied, c.admitted = seq, seq }

// Submit classifies a submission; seq 0 is unsequenced. On Admit of a
// sequenced request the position is reserved before any admission wait, so
// a concurrent duplicate gets Wait instead of a second admission. The
// second result is the expected sequence number of a Gap.
func (c *Cursor[R]) Submit(seq uint64) (Verdict, uint64) {
	switch {
	case c.closing:
		return Closed, 0
	case seq == 0:
		return Admit, 0
	case seq <= c.applied && seq == c.replaySeq:
		return Replay, 0
	case seq > c.applied && seq <= c.admitted:
		return Wait, 0
	case seq != c.admitted+1:
		return Gap, c.admitted + 1
	}
	c.admitted = seq
	return Admit, 0
}

// Replayed returns the response of the last applied sequenced batch.
func (c *Cursor[R]) Replayed() R { return c.replay }

// AdmissionFailed reports that a request Submit admitted never reached the
// queue (shed, deadline, close): its reservation and every one above it
// are released, and later queued positions — which can no longer be
// reached — are cut. Unsequenced requests hold no reservation.
func (c *Cursor[R]) AdmissionFailed(seq uint64) Cut {
	if seq == 0 {
		return Cut{}
	}
	if c.admitted >= seq {
		c.admitted = seq - 1
	}
	return Cut{above: seq, ExpectSeq: seq}
}

// Enqueued reports that an admitted request entered the queue.
func (c *Cursor[R]) Enqueued() { c.outstanding++ }

// CancelQueued reports that a queued request was withdrawn before
// dispatch. A sequenced one leaves a hole in the protocol order, so the
// positions queued behind it are cut and the reservation rolls back.
func (c *Cursor[R]) CancelQueued(seq uint64) Cut {
	c.outstanding--
	return c.AdmissionFailed(seq)
}

// Drop reports that an admitted request is being failed unserved by
// someone else's event: named by a Cut, failed fast because its stream is
// closing, or in flight in a stateless batch whose replica faulted.
func (c *Cursor[R]) Drop() { c.outstanding-- }

// Dispatch asks to start a queued request. It refuses while another batch
// of the stream is in flight and, for a sequenced request, anywhere but the
// next protocol position — queue order is not trusted, since retries and
// cuts reorder it. On ok the in-flight gate is taken; checkpoint reports
// whether this batch, once applied, lands on the checkpoint cadence.
func (c *Cursor[R]) Dispatch(seq uint64) (ok, checkpoint bool) {
	if c.busy || (seq != 0 && seq != c.applied+1) {
		return false, false
	}
	c.busy = true
	return true, c.every > 0 && (c.count+1)%c.every == 0
}

// Commit reports that a dispatched request was applied and is about to be
// delivered: the gate opens and, for a sequenced request, the watermark
// and the replay slot advance together.
func (c *Cursor[R]) Commit(seq uint64, r R) {
	c.busy = false
	c.outstanding--
	c.count++
	if seq == 0 {
		return
	}
	c.applied = seq
	c.replaySeq, c.replay = seq, r
}

// Fault reports that the dispatched request's replica failed before
// commit. The stream's state did not move, so every queued request was
// admitted against a position that no longer exists: all are cut, and the
// reservation returns to the applied watermark so the retry is accepted.
func (c *Cursor[R]) Fault() Cut {
	c.busy = false
	c.outstanding--
	c.admitted = c.applied
	return Cut{all: true, ExpectSeq: c.applied + 1}
}

// Close marks the stream closing and reports whether this call did it.
func (c *Cursor[R]) Close() bool {
	first := !c.closing
	c.closing = true
	return first
}

// Closing reports whether Close was called.
func (c *Cursor[R]) Closing() bool { return c.closing }

// Drained reports whether every admitted request has been delivered — the
// point at which a closing stream's state may be released.
func (c *Cursor[R]) Drained() bool { return c.outstanding == 0 }

// Applied is the highest applied sequence number.
func (c *Cursor[R]) Applied() uint64 { return c.applied }
