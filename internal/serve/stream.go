package serve

import (
	"context"

	"edgetta/internal/tensor"
)

// Stream is a client handle to one adaptation episode. A stream behaves
// exactly like a private adapter fed batch by batch: for stateful
// algorithms its requests are served in submission order with its own
// adaptation state, no matter which replica runs them.
type Stream struct {
	srv   *Server
	g     *group
	st    *streamState
	token string
}

// ID returns the stream's identifier within its group.
func (s *Stream) ID() int { return s.st.id }

// Token returns the stream's wire token, its key in the server's session
// table (Server.Stream): "n"+hex(name) for a named session, so it outlives
// the process, and 32 random hex characters for an anonymous stream.
func (s *Stream) Token() string { return s.token }

// SubmitCtx enqueues one batch and returns immediately; the response
// arrives on the returned buffered channel. The context governs the
// request until a replica dispatches it: a cancellation or deadline
// expiry while the request is blocked on admission or waiting in the
// queue delivers a typed *Error (CodeCanceled / CodeDeadline) instead of
// logits, and frees the queue slot. Once dispatched, the request runs to
// completion — a stream never observes a half-applied adaptation step.
//
// Under Config.Admission == AdmitShed a full queue fails the submission
// immediately with ErrOverloaded instead of blocking. A stream may
// pipeline submissions: stateful groups still process them one at a time
// in order.
func (s *Stream) SubmitCtx(ctx context.Context, x *tensor.Tensor) <-chan Response {
	return s.SubmitSeq(ctx, x, 0)
}

// SubmitSeq is SubmitCtx with an idempotency sequence number. Sequence
// numbers start at 1 and must be contiguous per stream: the stream accepts
// seq only when it directly follows the last applied batch (or duplicates
// one already admitted). The guarantees, which make retries after
// ErrReplicaFault safe:
//
//   - a duplicate of the last applied sequence number replays the cached
//     response without re-adapting — no batch is ever double-adapted;
//   - a duplicate of a sequence number still in flight waits for the
//     original's outcome (and becomes the retry if the original faults);
//   - a gap fails immediately with ErrSequence carrying ExpectSeq, the
//     number the stream will accept next — the rewind point after a
//     recovery.
//
// seq 0 means unsequenced and behaves exactly like SubmitCtx. Stateless
// groups ignore sequence numbers entirely (their requests are independent
// and idempotency is meaningless without state).
func (s *Stream) SubmitSeq(ctx context.Context, x *tensor.Tensor, seq uint64) <-chan Response {
	return s.g.submit(ctx, s.st, x, seq)
}

// ProcessSeq is the synchronous form of SubmitSeq: it returns the logits
// for the batch, one row per image. If the context expires after dispatch
// (while a replica is computing), ProcessSeq returns the typed context
// error without waiting; the work still completes server-side and the
// stream's adaptation state advances exactly as if the response had been
// read.
func (s *Stream) ProcessSeq(ctx context.Context, x *tensor.Tensor, seq uint64) (*tensor.Tensor, error) {
	ch := s.SubmitSeq(ctx, x, seq)
	select {
	case r := <-ch:
		return r.Logits, r.Err
	case <-ctx.Done():
		return nil, ctxErr(ctx)
	}
}

// Name returns the stream's session name (empty for anonymous streams).
// Named streams are the recoverable ones: their state is checkpointed and
// they can be reopened with OpenSession or resumed by Server.Stream.
func (s *Stream) Name() string { return s.st.name }

// Snapshot reports the stream's serving metrics so far. The group lock
// covers only the counter copy; the percentile summary is computed
// against the internally locked histogram after release.
func (s *Stream) Snapshot() StreamSnapshot {
	s.g.mu.Lock()
	ss := s.st.countsLocked()
	s.g.mu.Unlock()
	ss.E2E = s.st.e2e.Summary()
	return ss
}

// countsLocked copies the stream's plain counts; the caller holds g.mu and
// fills in E2E after releasing it.
func (st *streamState) countsLocked() StreamSnapshot {
	return StreamSnapshot{
		ID: st.id, Name: st.name,
		Requests: st.requests, Images: st.images,
		AppliedSeq: st.cur.Applied(),
	}
}

// Close ends the episode with drain-then-release semantics: later submits
// fail with ErrStreamClosed, requests already admitted are still served,
// and Close blocks until the last of them has finished before releasing
// the stream's adaptation state (a queued request references that state,
// so releasing early would race the worker that dispatches it). The token
// leaves the server's session table last, after the checkpoint is deleted.
func (s *Stream) Close() {
	if s.g.closeStream(s.st) {
		s.srv.mu.Lock()
		delete(s.srv.streams, s.token)
		s.srv.mu.Unlock()
	}
}
