package serve

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/tensor"
)

// testModel builds the smallest study model with deterministic weights.
func testModel() *models.Model {
	return models.PreActResNet18(rand.New(rand.NewSource(42)), models.ReproScale)
}

// genBatches materializes one corruption stream's batches so the serve and
// serial paths consume the exact same inputs.
func genBatches(seed int64, total, batch int, c data.Corruption, severity int) []*tensor.Tensor {
	gen := data.NewGenerator(1)
	s := gen.NewStream(seed, total, c, severity)
	var out []*tensor.Tensor
	for {
		x, _, ok := s.Next(batch)
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

// serialLogits is the reference: a private adapter over its own model copy
// processes the stream's batches in order, exactly as core.RunStream does.
func serialLogits(t *testing.T, base *models.Model, algo core.Algorithm, cfg core.Config, batches []*tensor.Tensor) [][]float32 {
	t.Helper()
	a, err := core.New(algo, base.Clone(), cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	a.Reset()
	var out [][]float32
	for _, x := range batches {
		logits := a.Process(x)
		out = append(out, append([]float32(nil), logits.Data...))
	}
	return out
}

func compareLogits(t *testing.T, stream int, want, got [][]float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("stream %d: %d batches served, want %d", stream, len(got), len(want))
	}
	for b := range want {
		if len(want[b]) != len(got[b]) {
			t.Fatalf("stream %d batch %d: %d logits, want %d", stream, b, len(got[b]), len(want[b]))
		}
		for i := range want[b] {
			if want[b][i] != got[b][i] {
				t.Fatalf("stream %d batch %d logit %d: served %v, serial %v (serving must be byte-identical)",
					stream, b, i, got[b][i], want[b][i])
			}
		}
	}
}

// streamInputs builds distinct per-stream corruption streams.
func streamInputs(nStreams, total, batch, severity int) [][]*tensor.Tensor {
	out := make([][]*tensor.Tensor, nStreams)
	for i := range out {
		c := data.AllCorruptions[i%len(data.AllCorruptions)]
		out[i] = genBatches(int64(100+i), total, batch, c, severity)
	}
	return out
}

// TestServeBackpressure checks a tiny queue still serves everything and
// never exceeds its bound.
func TestServeBackpressure(t *testing.T) {
	base := testModel()
	inputs := genBatches(9, 40, 4, data.Contrast, 3)

	srv := New(Config{MaxBatch: 8, QueueCap: 2})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, _ := srv.OpenStream(key)
	var chans []<-chan Response
	for _, x := range inputs {
		chans = append(chans, st.SubmitCtx(context.Background(), x)) // blocks when the queue is full
	}
	for b, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatalf("batch %d: %v", b, r.Err)
		}
	}
	stats, _ := srv.GroupSnapshot(key)
	if stats.MaxQueueDepth > 2 {
		t.Errorf("MaxQueueDepth = %d, want <= 2", stats.MaxQueueDepth)
	}
	if stats.Requests != len(inputs) {
		t.Errorf("Requests = %d, want %d", stats.Requests, len(inputs))
	}
}

// TestServeErrors covers the API's failure paths.
func TestServeErrors(t *testing.T) {
	base := testModel()
	srv := New(Config{})
	key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	if _, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 1); err == nil {
		t.Errorf("duplicate AddGroup should fail")
	}
	if _, err := srv.OpenStream(GroupKey{Algo: core.BNOpt, ModelTag: "nope"}); err == nil {
		t.Errorf("OpenStream on unknown group should fail")
	}

	st, _ := srv.OpenStream(key)
	if r := <-st.SubmitCtx(context.Background(), tensor.New(2, 2)); r.Err == nil {
		t.Errorf("non-NCHW submit should fail")
	}
	if r := <-st.SubmitCtx(context.Background(), tensor.New(1, 5, 32, 32)); r.Err == nil {
		t.Errorf("wrong-channel submit should fail")
	}
	good := tensor.New(1, base.InC, base.InHW, base.InHW)
	if r := <-st.SubmitCtx(context.Background(), good); r.Err != nil {
		t.Fatalf("valid submit failed: %v", r.Err)
	}

	st.Close()
	if r := <-st.SubmitCtx(context.Background(), good); !errors.Is(r.Err, ErrStreamClosed) {
		t.Errorf("submit on closed stream: err = %v, want ErrStreamClosed", r.Err)
	}

	srv.Close()
	if _, err := srv.OpenStream(key); !errors.Is(err, ErrClosed) {
		t.Errorf("OpenStream after Close: err = %v, want ErrClosed", err)
	}
	st2 := &Stream{g: srvGroup(srv, key), st: &streamState{id: -1}}
	if r := <-st2.SubmitCtx(context.Background(), good); !errors.Is(r.Err, ErrClosed) {
		t.Errorf("submit after Close: err = %v, want ErrClosed", r.Err)
	}
}

// srvGroup digs out a group for the post-Close submit check.
func srvGroup(s *Server, key GroupKey) *group {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.groups[key]
}
