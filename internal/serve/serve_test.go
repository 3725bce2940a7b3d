package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

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

// TestServeNoAdaptCoalescedMatchesSerial drives 8 streams through a
// stateless group with aggressive coalescing and checks the outputs are
// byte-identical to serial per-stream runs — and that coalescing actually
// happened (multiple requests per Process call).
func TestServeNoAdaptCoalescedMatchesSerial(t *testing.T) {
	const nStreams, total, batch = 8, 24, 8
	base := testModel()
	inputs := streamInputs(nStreams, total, batch, 3)

	srv := New(Config{MaxBatch: 64, MaxLinger: 200 * time.Millisecond, QueueCap: 64})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 2)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	// Pipeline every batch of every stream up front so the queue is deep
	// enough for the batcher to coalesce across streams.
	streams := make([]*Stream, nStreams)
	resps := make([][]<-chan Response, nStreams)
	for i := range streams {
		if streams[i], err = srv.OpenStream(key); err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		for _, x := range inputs[i] {
			resps[i] = append(resps[i], streams[i].SubmitCtx(context.Background(), x))
		}
	}
	got := make([][][]float32, nStreams)
	for i := range resps {
		for b, ch := range resps[i] {
			r := <-ch
			if r.Err != nil {
				t.Fatalf("stream %d batch %d: %v", i, b, r.Err)
			}
			got[i] = append(got[i], append([]float32(nil), r.Logits.Data...))
		}
	}

	for i := 0; i < nStreams; i++ {
		want := serialLogits(t, base, core.NoAdapt, core.Config{}, inputs[i])
		compareLogits(t, i, want, got[i])
	}

	stats, err := srv.GroupSnapshot(key)
	if err != nil {
		t.Fatalf("GroupSnapshot: %v", err)
	}
	if stats.MaxCoalesced <= batch {
		t.Errorf("MaxCoalesced = %d, want > %d: no cross-request batching happened", stats.MaxCoalesced, batch)
	}
	if stats.Batches >= stats.Requests {
		t.Errorf("Batches = %d, Requests = %d: coalescing should need fewer Process calls", stats.Batches, stats.Requests)
	}
	if stats.Images != nStreams*total {
		t.Errorf("Images = %d, want %d", stats.Images, nStreams*total)
	}
}

// TestServeBNNormSharedReplicasMatchesSerial is the stateful contract: 8
// BN-Norm streams share 2 replicas via state snapshot/restore, and every
// stream's outputs must match a serial run with a private adapter.
func TestServeBNNormSharedReplicasMatchesSerial(t *testing.T) {
	const nStreams, total, batch, replicas = 8, 24, 8, 2
	base := testModel()
	inputs := streamInputs(nStreams, total, batch, 3)

	srv := New(Config{MaxBatch: 64, QueueCap: 32})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, replicas)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	got := make([][][]float32, nStreams)
	var wg sync.WaitGroup
	errs := make([]error, nStreams)
	for i := 0; i < nStreams; i++ {
		st, err := srv.OpenStream(key)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		wg.Add(1)
		go func(i int, st *Stream) {
			defer wg.Done()
			for _, x := range inputs[i] {
				logits, err := st.ProcessSeq(context.Background(), x, 0)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = append(got[i], append([]float32(nil), logits.Data...))
			}
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}

	for i := 0; i < nStreams; i++ {
		want := serialLogits(t, base, core.BNNorm, core.Config{}, inputs[i])
		compareLogits(t, i, want, got[i])
	}

	stats, _ := srv.GroupSnapshot(key)
	if !stats.Stateful {
		t.Errorf("BN-Norm group should be stateful")
	}
	if stats.Replicas != replicas {
		t.Errorf("Replicas = %d, want %d", stats.Replicas, replicas)
	}
	if stats.Batches != nStreams*(total/batch) {
		t.Errorf("Batches = %d, want %d (stateful groups must not coalesce)", stats.Batches, nStreams*(total/batch))
	}
	if stats.MaxCoalesced != batch {
		t.Errorf("MaxCoalesced = %d, want %d", stats.MaxCoalesced, batch)
	}
}

// TestServeBNOptMatchesSerial covers the heaviest state (BN affine params,
// Adam moments) across shared replicas.
func TestServeBNOptMatchesSerial(t *testing.T) {
	const nStreams, total, batch = 4, 12, 6
	base := testModel()
	inputs := streamInputs(nStreams, total, batch, 2)

	srv := New(Config{QueueCap: 16})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNOpt, core.Config{}, 2)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	got := make([][][]float32, nStreams)
	var wg sync.WaitGroup
	for i := 0; i < nStreams; i++ {
		st, err := srv.OpenStream(key)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		wg.Add(1)
		go func(i int, st *Stream) {
			defer wg.Done()
			for _, x := range inputs[i] {
				logits, err := st.ProcessSeq(context.Background(), x, 0)
				if err != nil {
					t.Errorf("stream %d: %v", i, err)
					return
				}
				got[i] = append(got[i], append([]float32(nil), logits.Data...))
			}
		}(i, st)
	}
	wg.Wait()

	for i := 0; i < nStreams; i++ {
		want := serialLogits(t, base, core.BNOpt, core.Config{}, inputs[i])
		compareLogits(t, i, want, got[i])
	}
}

// TestServeStatefulPipelining submits a stream's batches without waiting:
// the dispatcher must still serialize them in order, giving serial results.
func TestServeStatefulPipelining(t *testing.T) {
	const total, batch = 32, 8
	base := testModel()
	inputs := genBatches(7, total, batch, data.GaussianNoise, 3)

	srv := New(Config{QueueCap: 16})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 3)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	var chans []<-chan Response
	for _, x := range inputs {
		chans = append(chans, st.SubmitCtx(context.Background(), x))
	}
	var got [][]float32
	for b, ch := range chans {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("batch %d: %v", b, r.Err)
		}
		got = append(got, append([]float32(nil), r.Logits.Data...))
	}
	want := serialLogits(t, base, core.BNNorm, core.Config{}, inputs)
	compareLogits(t, 0, want, got)
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

// scenarioBatches materializes a ScheduledStream's batches so serve and
// serial consume identical shifting-traffic inputs, including the batches
// that straddle phase boundaries and the short final batch.
func scenarioBatches(t *testing.T, seed int64, batch int, sc data.Scenario) []*tensor.Tensor {
	t.Helper()
	gen := data.NewGenerator(1)
	s, err := gen.NewScheduledStream(seed, sc)
	if err != nil {
		t.Fatalf("NewScheduledStream: %v", err)
	}
	var out []*tensor.Tensor
	for {
		x, _, ok := s.Next(batch)
		if !ok {
			return out
		}
		out = append(out, x)
	}
}

// TestServeScheduledStreamMatchesSerial is the scenario parity contract: a
// temporally-shifting ScheduledStream served through shared replicas must be
// byte-identical to the same scenario run serially with a private adapter,
// for all three algorithms. Batch size 8 over 10-sample phases forces
// batches that straddle corruption switches mid-batch.
func TestServeScheduledStreamMatchesSerial(t *testing.T) {
	const batch, perPhase = 8, 10
	base := testModel()
	scenarios := []data.Scenario{
		data.AbruptSwitch("switch", []data.Corruption{data.GaussianNoise, data.Fog}, 3, perPhase),
		data.SeverityRamp("ramp", data.Contrast, 2, 4, perPhase),
	}

	srv := New(Config{QueueCap: 16})
	defer srv.Close()
	keys := make(map[core.Algorithm]GroupKey)
	for _, algo := range core.Algorithms {
		key, err := srv.AddGroup(base, algo, core.Config{}, 2)
		if err != nil {
			t.Fatalf("AddGroup(%v): %v", algo, err)
		}
		keys[algo] = key
	}

	type job struct {
		algo   core.Algorithm
		inputs []*tensor.Tensor
	}
	var jobs []job
	for _, algo := range core.Algorithms {
		for i, sc := range scenarios {
			jobs = append(jobs, job{algo, scenarioBatches(t, int64(200+i), batch, sc)})
		}
	}

	got := make([][][]float32, len(jobs))
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	for j, jb := range jobs {
		st, err := srv.OpenStream(keys[jb.algo])
		if err != nil {
			t.Fatalf("OpenStream(%v): %v", jb.algo, err)
		}
		wg.Add(1)
		go func(j int, jb job, st *Stream) {
			defer wg.Done()
			for _, x := range jb.inputs {
				logits, err := st.ProcessSeq(context.Background(), x, 0)
				if err != nil {
					errs[j] = err
					return
				}
				got[j] = append(got[j], append([]float32(nil), logits.Data...))
			}
		}(j, jb, st)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d (%v): %v", j, jobs[j].algo, err)
		}
	}

	for j, jb := range jobs {
		want := serialLogits(t, base, jb.algo, core.Config{}, jb.inputs)
		compareLogits(t, j, want, got[j])
	}
}
