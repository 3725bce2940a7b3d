package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"edgetta/internal/core"
)

// TestStreamCloseUnderLoadDrains closes a stateful stream while a deep
// pipeline of its requests is still queued. Drain-then-release semantics
// require that every admitted request is served (with outputs identical to
// a serial run), that Close blocks until the last of them finishes, and
// that only submissions after Close fail — with ErrStreamClosed, never a
// nil-state crash.
func TestStreamCloseUnderLoadDrains(t *testing.T) {
	base := testModel()
	inputs := streamInputs(1, 10, 4, 3)[0]

	srv := New(Config{QueueCap: 64})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 2)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}

	// Pipeline the whole episode, then Close concurrently with a second
	// submitter racing more work in. Admitted requests must drain; the
	// racer's must either be served in full or rejected cleanly.
	chans := make([]<-chan Response, len(inputs))
	for i, x := range inputs {
		chans[i] = st.SubmitCtx(context.Background(), x)
	}
	racerDone := make(chan []<-chan Response, 1)
	go func() {
		var extra []<-chan Response
		for i := 0; i < 20; i++ {
			extra = append(extra, st.SubmitCtx(context.Background(), inputs[i%len(inputs)]))
		}
		racerDone <- extra
	}()
	st.Close()

	// After Close returns, the stream must be fully released: gone from
	// the snapshot, zero pending work.
	s, err := srv.GroupSnapshot(key)
	if err != nil {
		t.Fatalf("GroupSnapshot: %v", err)
	}
	if len(s.Streams) != 0 {
		t.Errorf("stream still listed after Close: %+v", s.Streams)
	}
	if s.QueueDepth != 0 || s.PendingImages != 0 {
		t.Errorf("work left after Close: depth %d, images %d", s.QueueDepth, s.PendingImages)
	}
	if _, err := st.ProcessSeq(context.Background(), inputs[0], 0); !errors.Is(err, ErrStreamClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrStreamClosed", err)
	}

	// Every pre-Close request was admitted, so all must be served with
	// serial-identical outputs — Close must not drop or corrupt them.
	var got [][]float32
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("admitted batch %d failed: %v", i, r.Err)
		}
		got = append(got, append([]float32(nil), r.Logits.Data...))
	}
	want := serialLogits(t, base, core.BNNorm, core.Config{}, inputs)
	compareLogits(t, 0, want, got)

	// The racer's submissions landed before or after the close; each must
	// resolve to exactly one of {served, ErrStreamClosed}.
	for i, ch := range <-racerDone {
		r := <-ch
		if r.Err != nil && !errors.Is(r.Err, ErrStreamClosed) {
			t.Errorf("racing submission %d: err = %v, want nil or ErrStreamClosed", i, r.Err)
		}
	}
}

// TestStreamCloseConcurrentStreams closes many stateful streams in
// parallel mid-flight and checks the group survives with consistent
// accounting — the regression shape for the old release-before-drain bug,
// meant to run under -race.
func TestStreamCloseConcurrentStreams(t *testing.T) {
	const nStreams = 6
	base := testModel()
	inputs := streamInputs(nStreams, 6, 4, 3)

	srv := New(Config{QueueCap: 64})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 3)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	var wg sync.WaitGroup
	for i := 0; i < nStreams; i++ {
		st, err := srv.OpenStream(key)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		wg.Add(1)
		go func(i int, st *Stream) {
			defer wg.Done()
			var chans []<-chan Response
			for _, x := range inputs[i] {
				chans = append(chans, st.SubmitCtx(context.Background(), x))
			}
			st.Close() // while its pipeline is still in flight
			for _, ch := range chans {
				if r := <-ch; r.Err != nil {
					t.Errorf("stream %d: admitted request failed: %v", i, r.Err)
				}
			}
		}(i, st)
	}
	wg.Wait()

	s, err := srv.GroupSnapshot(key)
	if err != nil {
		t.Fatalf("GroupSnapshot: %v", err)
	}
	if len(s.Streams) != 0 {
		t.Errorf("%d streams still listed after all closed", len(s.Streams))
	}
	wantReqs := 0
	for i := range inputs {
		wantReqs += len(inputs[i])
	}
	if s.Requests != wantReqs {
		t.Errorf("Requests = %d, want %d (every admitted request served exactly once)", s.Requests, wantReqs)
	}
}
