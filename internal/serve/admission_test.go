package serve

import (
	"context"
	"errors"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/tensor"
)

// TestAdmitShedOverloadProperties floods a one-replica group far past its
// queue capacity under AdmitShed and checks the admission-control
// invariants as properties over the whole run:
//
//  1. the server sheds instead of growing the queue — MaxQueueDepth never
//     exceeds QueueCap;
//  2. every submission is accounted exactly once: served + shed == sent;
//  3. shed requests never consume a replica slot: Requests/Images count
//     only the served ones;
//  4. every rejection is the typed ErrOverloaded carrying the observed
//     queue depth and a positive retry-after hint.
func TestAdmitShedOverloadProperties(t *testing.T) {
	const queueCap, sent, batch = 4, 120, 2
	base := testModel()
	srv := New(Config{QueueCap: queueCap, Admission: AdmitShed})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}

	// A single submitter firing back-to-back: under AdmitShed nothing
	// blocks, so submission is far faster than service and the queue
	// saturates immediately.
	x := tensor.New(batch, base.InC, base.InHW, base.InHW)
	chans := make([]<-chan Response, 0, sent)
	for i := 0; i < sent; i++ {
		chans = append(chans, st.SubmitCtx(context.Background(), x))
	}

	var served, shed int
	for i, ch := range chans {
		r := <-ch
		if r.Err == nil {
			served++
			continue
		}
		if !errors.Is(r.Err, ErrOverloaded) {
			t.Fatalf("submission %d: err = %v, want ErrOverloaded", i, r.Err)
		}
		var se *Error
		if !errors.As(r.Err, &se) {
			t.Fatalf("submission %d: rejection is not a *serve.Error: %v", i, r.Err)
		}
		if se.QueueDepth != queueCap {
			t.Errorf("submission %d: rejection QueueDepth = %d, want %d (full queue)", i, se.QueueDepth, queueCap)
		}
		if se.RetryAfter <= 0 {
			t.Errorf("submission %d: rejection RetryAfter = %v, want > 0", i, se.RetryAfter)
		}
		shed++
	}

	if shed == 0 {
		t.Fatalf("no submissions shed: %d sent into a %d-deep queue on 1 replica", sent, queueCap)
	}
	if served+shed != sent {
		t.Fatalf("accounting: served %d + shed %d != sent %d", served, shed, sent)
	}
	s, err := srv.GroupSnapshot(key)
	if err != nil {
		t.Fatalf("GroupSnapshot: %v", err)
	}
	if s.MaxQueueDepth > queueCap {
		t.Errorf("MaxQueueDepth = %d, want <= QueueCap %d (queue must stay bounded under overload)", s.MaxQueueDepth, queueCap)
	}
	if s.Shed != shed {
		t.Errorf("snapshot Shed = %d, want %d", s.Shed, shed)
	}
	if s.Requests != served {
		t.Errorf("snapshot Requests = %d, want %d (shed requests must not reach a replica)", s.Requests, served)
	}
	if s.Images != served*batch {
		t.Errorf("snapshot Images = %d, want %d", s.Images, served*batch)
	}
	if s.E2E.Count != served {
		t.Errorf("e2e latency samples = %d, want %d (shed requests must not be timed as served)", s.E2E.Count, served)
	}
}
