package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/tensor"
)

// TestSubmitCtxPreCanceled pins the fast path: a context that is already
// expired fails the submission before touching the queue.
func TestSubmitCtxPreCanceled(t *testing.T) {
	base := testModel()
	srv := New(Config{})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, _ := srv.OpenStream(key)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = st.ProcessSeq(ctx, tensor.New(1, base.InC, base.InHW, base.InHW), 0)
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeCanceled {
		t.Fatalf("pre-canceled submit: err = %v, want CodeCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("typed error should unwrap to context.Canceled, got %v", err)
	}
	s, _ := srv.GroupSnapshot(key)
	if s.Requests != 0 {
		t.Errorf("pre-canceled request was served: Requests = %d", s.Requests)
	}
}

// TestSubmitCtxCanceledWhileQueued cancels a request that is sitting in
// the pending queue behind a slow in-flight request: the response must be
// the typed cancellation, the queue slot must be freed, and the request
// must never reach a replica.
func TestSubmitCtxCanceledWhileQueued(t *testing.T) {
	base := testModel()
	srv := New(Config{QueueCap: 16})
	defer srv.Close()
	// Stateful group, one replica: stream B's request cannot dispatch
	// while stream A's big batch occupies the only replica.
	key, err := srv.AddGroup(base, core.BNOpt, core.Config{Steps: 4}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	stA, _ := srv.OpenStream(key)
	stB, _ := srv.OpenStream(key)

	slow := tensor.New(48, base.InC, base.InHW, base.InHW)
	chA := stA.SubmitCtx(context.Background(), slow)

	ctx, cancel := context.WithCancel(context.Background())
	chB := stB.SubmitCtx(ctx, tensor.New(2, base.InC, base.InHW, base.InHW))
	cancel()

	rB := <-chB
	var se *Error
	if !errors.As(rB.Err, &se) || se.Code != CodeCanceled {
		t.Fatalf("queued-then-canceled request: err = %v, want CodeCanceled", rB.Err)
	}
	if rA := <-chA; rA.Err != nil {
		t.Fatalf("slow request failed: %v", rA.Err)
	}
	s, _ := srv.GroupSnapshot(key)
	if s.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", s.Canceled)
	}
	if s.Requests != 1 {
		t.Errorf("Requests = %d, want 1 (the canceled request must not consume a replica)", s.Requests)
	}
	if s.QueueDepth != 0 || s.PendingImages != 0 {
		t.Errorf("canceled request left queue residue: depth %d, images %d", s.QueueDepth, s.PendingImages)
	}
}

// TestSubmitCtxDeadlineWhileBlocked expires a deadline while the submitter
// is blocked on admission (AdmitBlock, full queue): the typed deadline
// error must come back instead of blocking forever — the exact failure
// mode the old Submit had no answer to.
func TestSubmitCtxDeadlineWhileBlocked(t *testing.T) {
	base := testModel()
	srv := New(Config{QueueCap: 1})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNOpt, core.Config{Steps: 4}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	stA, _ := srv.OpenStream(key)
	stB, _ := srv.OpenStream(key)

	// r1 occupies the replica for far longer than the deadline; r2 fills
	// the queue (cap 1); the deadlined submit blocks on admission.
	slow := tensor.New(48, base.InC, base.InHW, base.InHW)
	chA1 := stA.SubmitCtx(context.Background(), slow)
	chA2 := stA.SubmitCtx(context.Background(), slow)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = stB.ProcessSeq(ctx, tensor.New(2, base.InC, base.InHW, base.InHW), 0)
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeDeadline {
		t.Fatalf("blocked submit past deadline: err = %v, want CodeDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("typed error should unwrap to context.DeadlineExceeded, got %v", err)
	}
	// The rejection must arrive near the deadline, not after the slow
	// request's multi-hundred-ms service time.
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("deadlined submit blocked %v", waited)
	}
	for _, ch := range []<-chan Response{chA1, chA2} {
		if r := <-ch; r.Err != nil {
			t.Fatalf("background request failed: %v", r.Err)
		}
	}
}
