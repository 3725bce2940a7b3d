package serve

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Code classifies a serving failure. The HTTP front-end maps codes to
// status lines table-driven (internal/serve/httpapi), so every error the
// package reports must carry one — string-matching error text is never
// the dispatch mechanism.
type Code int

// The serving failure classes.
const (
	// CodeUnknown is the zero value; no error constructed by this package
	// uses it.
	CodeUnknown Code = iota
	// CodeClosed: the server is shut down (or shutting down).
	CodeClosed
	// CodeStreamClosed: the stream handle was closed by its owner.
	CodeStreamClosed
	// CodeOverloaded: the group's bounded queue is full and the admission
	// policy sheds instead of blocking. The error carries the queue depth
	// and a suggested retry-after.
	CodeOverloaded
	// CodeBadRequest: the submitted batch is malformed (wrong rank or
	// shape for the group's model).
	CodeBadRequest
	// CodeNoGroup: no replica group is registered under the requested key.
	CodeNoGroup
	// CodeDeadline: the request's context deadline expired while the
	// request was queued (or while blocked on admission).
	CodeDeadline
	// CodeCanceled: the request's context was canceled while the request
	// was queued (or while blocked on admission).
	CodeCanceled
	// CodeReplicaFault: the replica processing the request panicked or
	// exceeded the watchdog deadline and was quarantined. The request did
	// NOT advance the stream's adaptation state, so a retry with the same
	// sequence number is safe — the error is retryable by contract and
	// carries a suggested retry-after (a fresh replica is respawning).
	CodeReplicaFault
	// CodeSequence: a sequenced submit does not follow the stream's
	// protocol order. The error carries ExpectSeq, the sequence number the
	// stream will accept next, so a client can rewind after a recovery.
	CodeSequence
)

// String names the code the way logs and the wire protocol spell it.
func (c Code) String() string {
	switch c {
	case CodeClosed:
		return "closed"
	case CodeStreamClosed:
		return "stream_closed"
	case CodeOverloaded:
		return "overloaded"
	case CodeBadRequest:
		return "bad_request"
	case CodeNoGroup:
		return "no_group"
	case CodeDeadline:
		return "deadline"
	case CodeCanceled:
		return "canceled"
	case CodeReplicaFault:
		return "replica_fault"
	case CodeSequence:
		return "sequence"
	}
	return "unknown"
}

// ParseCode inverts String: it resolves a wire-spelled code name back to
// the Code, so the HTTP client can rebuild typed errors that still match
// the sentinels under errors.Is. Unrecognized names parse as CodeUnknown
// (the wire may be newer than the client).
func ParseCode(s string) Code {
	for c := CodeClosed; c <= CodeSequence; c++ {
		if c.String() == s {
			return c
		}
	}
	return CodeUnknown
}

// Error is the package's typed error: a failure class plus the detail a
// client needs to react (for CodeOverloaded, how loaded the queue was and
// when a retry is worth attempting). Two Errors match under errors.Is when
// their Codes match, so sentinels like ErrOverloaded work as classes:
// errors.Is(err, ErrOverloaded) is true for any shed rejection regardless
// of the depth/retry detail the instance carries.
type Error struct {
	Code Code
	Msg  string
	// RetryAfter, for CodeOverloaded, is the server's backoff suggestion
	// (surfaced as the HTTP Retry-After header). Zero means "immediately".
	RetryAfter time.Duration
	// QueueDepth, for CodeOverloaded, is the pending-queue depth observed
	// at rejection time.
	QueueDepth int
	// ExpectSeq, for CodeSequence, is the sequence number the stream will
	// accept next (last admitted + 1: positions already queued or in flight
	// are taken); a recovering client rewinds to it.
	ExpectSeq uint64
	// Cause, when non-nil, is the underlying error (the context error for
	// CodeDeadline/CodeCanceled); Unwrap exposes it to errors.Is.
	Cause error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Msg != "" {
		return "serve: " + e.Msg
	}
	return "serve: " + e.Code.String()
}

// Unwrap exposes the cause, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) see through the typed wrapper.
func (e *Error) Unwrap() error { return e.Cause }

// Is matches any *Error with the same Code, making the exported sentinels
// behave as failure classes under errors.Is.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// Sentinel errors: the failure classes clients branch on. Each is a bare
// *Error carrying only its Code; errors reported at runtime are richer
// instances that match these under errors.Is.
var (
	ErrClosed       = &Error{Code: CodeClosed, Msg: "server closed"}
	ErrStreamClosed = &Error{Code: CodeStreamClosed, Msg: "stream closed"}
	ErrOverloaded   = &Error{Code: CodeOverloaded, Msg: "queue full"}
	// ErrReplicaFault matches any failure caused by a quarantined replica.
	// Retryable: the faulted dispatch never advanced adaptation state.
	ErrReplicaFault = &Error{Code: CodeReplicaFault, Msg: "replica fault"}
	// ErrSequence matches any sequenced-submit protocol violation.
	ErrSequence = &Error{Code: CodeSequence, Msg: "sequence mismatch"}
)

// errBadRequest builds a CodeBadRequest instance.
func errBadRequest(format string, args ...any) *Error {
	return &Error{Code: CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// errNoGroup builds a CodeNoGroup instance.
func errNoGroup(key GroupKey) *Error {
	return &Error{Code: CodeNoGroup, Msg: fmt.Sprintf("no group %s", key)}
}

// errOverloaded builds a CodeOverloaded instance carrying the observed
// queue depth and the suggested backoff.
func errOverloaded(key GroupKey, depth int, retryAfter time.Duration) *Error {
	return &Error{
		Code:       CodeOverloaded,
		Msg:        fmt.Sprintf("%s: queue full (%d pending), retry after %v", key, depth, retryAfter),
		RetryAfter: retryAfter,
		QueueDepth: depth,
	}
}

// errReplicaFault builds a CodeReplicaFault instance. reason is what took
// the replica down ("panic: ...", "watchdog: ..."); retryAfter estimates
// when a respawned replica will be taking work again.
func errReplicaFault(key GroupKey, replicaID int, reason string, retryAfter time.Duration) *Error {
	return &Error{
		Code:       CodeReplicaFault,
		Msg:        fmt.Sprintf("%s: replica %d quarantined (%s), retry after %v", key, replicaID, reason, retryAfter),
		RetryAfter: retryAfter,
	}
}

// errSequence builds a CodeSequence instance telling the client which
// sequence number the stream will accept next.
func errSequence(key GroupKey, got, expect uint64) *Error {
	return &Error{
		Code:      CodeSequence,
		Msg:       fmt.Sprintf("%s: submit seq %d out of order, expect %d", key, got, expect),
		ExpectSeq: expect,
	}
}

// ctxErr converts the error of a request context that expired while the
// request was queued (or blocked on admission) into the typed taxonomy,
// preserving the cause.
func ctxErr(ctx context.Context) *Error {
	cause := context.Cause(ctx)
	code := CodeCanceled
	if errors.Is(cause, context.DeadlineExceeded) {
		code = CodeDeadline
	}
	return &Error{Code: code, Msg: "request " + code.String() + " while queued", Cause: cause}
}
