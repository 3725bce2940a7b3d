package serve

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/serialize"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// scriptInjector faults scripted dispatch indices (1-based, counted across
// the whole server) and checkpoint-write indices. Zero maps inject nothing.
type scriptInjector struct {
	mu        sync.Mutex
	n         uint64
	nCkpt     uint64
	faults    map[uint64]Fault
	ckptFails map[uint64]bool
}

func (in *scriptInjector) ProcessFault(group string, replica int) Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.n++
	return in.faults[in.n]
}

func (in *scriptInjector) CheckpointFault(session string, seq uint64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.nCkpt++
	if in.ckptFails[in.nCkpt] {
		return errors.New("injected checkpoint write failure")
	}
	return nil
}

// gateInjector hands the test full control over dispatch timing: every
// Process call announces itself on entered, then blocks until the test
// sends the fault to return on release.
type gateInjector struct {
	entered chan struct{}
	release chan Fault
}

func (in *gateInjector) ProcessFault(string, int) Fault {
	in.entered <- struct{}{}
	return <-in.release
}

func (in *gateInjector) CheckpointFault(string, uint64) error { return nil }

// open lets every held and future dispatch through with no fault until the
// returned function is called.
func (in *gateInjector) open() (shut func()) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-in.entered:
			case in.release <- Fault{}:
			case <-stop:
				return
			}
		}
	}()
	return func() { close(stop); <-done }
}

// processRetry drives one sequenced batch to completion, retrying on the
// retryable replica-fault class the way a real client would.
func processRetry(t *testing.T, st *Stream, x *tensor.Tensor, seq uint64) []float32 {
	t.Helper()
	ctx := context.Background()
	for attempt := 0; attempt < 100; attempt++ {
		logits, err := st.ProcessSeq(ctx, x, seq)
		if err == nil {
			return append([]float32(nil), logits.Data...)
		}
		if !errors.Is(err, ErrReplicaFault) {
			t.Fatalf("seq %d: %v (want nil or ErrReplicaFault)", seq, err)
		}
		time.Sleep(2 * time.Millisecond) // the replacement replica is spawning
	}
	t.Fatalf("seq %d: still faulting after 100 attempts", seq)
	return nil
}

// pollSnapshot polls the group snapshot until cond holds or the deadline
// passes, returning the last snapshot either way.
func pollSnapshot(t *testing.T, srv *Server, key GroupKey, cond func(GroupSnapshot) bool) GroupSnapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s, err := srv.GroupSnapshot(key)
		if err != nil {
			t.Fatalf("GroupSnapshot: %v", err)
		}
		if cond(s) || time.Now().After(deadline) {
			return s
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchdogQuarantinesWedgedReplica wedges the only replica far past the
// watchdog deadline: the dispatch must fail with the typed replica fault
// naming the watchdog, and a retry must be served by the replacement.
func TestWatchdogQuarantinesWedgedReplica(t *testing.T) {
	base := testModel()
	x := genBatches(3, 4, 4, data.Fog, 3)[0]

	inj := &scriptInjector{faults: map[uint64]Fault{
		1: {Kind: FaultDelay, Delay: 2 * time.Second},
	}}
	srv := New(Config{QueueCap: 4, Watchdog: 100 * time.Millisecond, Injector: inj})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, _ := srv.OpenStream(key)

	_, err = st.ProcessSeq(context.Background(), x, 1)
	if !errors.Is(err, ErrReplicaFault) {
		t.Fatalf("wedged dispatch: err = %v, want ErrReplicaFault", err)
	}
	if !strings.Contains(err.Error(), "watchdog") {
		t.Errorf("fault reason = %q, want the watchdog named", err.Error())
	}
	processRetry(t, st, x, 1)

	s := pollSnapshot(t, srv, key, func(s GroupSnapshot) bool { return s.Respawns == 1 })
	if s.Faults != 1 || s.Respawns != 1 {
		t.Errorf("Faults/Respawns = %d/%d, want 1/1", s.Faults, s.Respawns)
	}
}

// TestNumericGuardResetsPoisonedState poisons a captured post-batch state
// with NaN: the guard must reset the stream to the episode-start snapshot
// and re-serve the batch from source — so the poisoned batch and everything
// after it match a serial run that starts fresh at the poisoned batch, and
// the reset is counted.
func TestNumericGuardResetsPoisonedState(t *testing.T) {
	base := testModel()
	inputs := genBatches(5, 16, 4, data.Contrast, 3)

	inj := &scriptInjector{faults: map[uint64]Fault{2: {Kind: FaultPoison}}}
	srv := New(Config{QueueCap: 8, Injector: inj})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, _ := srv.OpenStream(key)

	var got [][]float32
	for b, x := range inputs {
		logits, err := st.ProcessSeq(context.Background(), x, 0)
		if err != nil {
			t.Fatalf("batch %d: %v (a numeric reset must not fail the request)", b, err)
		}
		got = append(got, append([]float32(nil), logits.Data...))
	}

	// Batch 0 adapted normally; batch 1's captured state was poisoned, so it
	// was re-served from the source snapshot and the stream continued from
	// there: batches 1.. must equal a serial run over inputs[1:] alone.
	compareLogits(t, 0, serialLogits(t, base, core.BNNorm, core.Config{}, inputs[:1]), got[:1])
	compareLogits(t, 1, serialLogits(t, base, core.BNNorm, core.Config{}, inputs[1:]), got[1:])

	s, _ := srv.GroupSnapshot(key)
	if s.NumericResets != 1 {
		t.Errorf("NumericResets = %d, want 1", s.NumericResets)
	}
	if s.Faults != 0 {
		t.Errorf("Faults = %d, want 0 (a numeric reset is not a quarantine)", s.Faults)
	}
}

// TestSequenceProtocol pins the idempotency protocol: duplicate of the last
// applied sequence number replays the cached response without re-adapting,
// a gap fails with ExpectSeq, and a stale non-cached duplicate fails too.
func TestSequenceProtocol(t *testing.T) {
	base := testModel()
	inputs := genBatches(13, 12, 4, data.GaussianNoise, 3)
	ctx := context.Background()

	srv := New(Config{QueueCap: 8})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, _ := srv.OpenStream(key)

	first, err := st.ProcessSeq(ctx, inputs[0], 1)
	if err != nil {
		t.Fatalf("seq 1: %v", err)
	}
	imagesAfterFirst, _ := srv.GroupSnapshot(key)

	// Idempotent replay: same payload, same seq — cached response, bitwise.
	replay, err := st.ProcessSeq(ctx, inputs[0], 1)
	if err != nil {
		t.Fatalf("replay seq 1: %v", err)
	}
	compareLogits(t, 0, [][]float32{first.Data}, [][]float32{replay.Data})
	if s, _ := srv.GroupSnapshot(key); s.Images != imagesAfterFirst.Images {
		t.Errorf("Images grew %d -> %d on a replay: the batch was re-adapted", imagesAfterFirst.Images, s.Images)
	}

	// Gap: seq 3 before 2 fails immediately with the rewind point.
	_, err = st.ProcessSeq(ctx, inputs[2], 3)
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeSequence {
		t.Fatalf("gap submit: err = %v, want CodeSequence", err)
	}
	if se.ExpectSeq != 2 {
		t.Errorf("gap ExpectSeq = %d, want 2", se.ExpectSeq)
	}

	if _, err := st.ProcessSeq(ctx, inputs[1], 2); err != nil {
		t.Fatalf("seq 2: %v", err)
	}

	// Stale duplicate below the cached position: protocol violation, not a
	// silent replay of the wrong batch.
	_, err = st.ProcessSeq(ctx, inputs[0], 1)
	if !errors.As(err, &se) || se.Code != CodeSequence {
		t.Fatalf("stale duplicate: err = %v, want CodeSequence", err)
	}

	// Stateless groups ignore sequence numbers entirely.
	slKey, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup(noadapt): %v", err)
	}
	slst, _ := srv.OpenStream(slKey)
	if _, err := slst.ProcessSeq(ctx, inputs[0], 42); err != nil {
		t.Fatalf("stateless sequenced submit: %v", err)
	}
}

// TestCheckpointWriteFailureKeepsPrevious fails the second checkpoint
// write: the store must keep the first, recovery resumes from it, and the
// failure is counted without failing the request that triggered it.
func TestCheckpointWriteFailureKeepsPrevious(t *testing.T) {
	base := testModel()
	inputs := genBatches(19, 16, 4, data.Fog, 3)
	want := serialLogits(t, base, core.BNNorm, core.Config{}, inputs)
	ctx := context.Background()

	inj := &scriptInjector{ckptFails: map[uint64]bool{2: true}}
	reg := telemetry.NewRegistry()
	cfg := Config{QueueCap: 8, Checkpoint: CheckpointConfig{Every: 2, Dir: t.TempDir()}, Injector: inj, Registry: reg}
	srvA := New(cfg)
	key, err := srvA.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	stA, _, err := srvA.OpenSession(key, "sess")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	for b := 0; b < 4; b++ {
		if _, err := stA.ProcessSeq(ctx, inputs[b], uint64(b+1)); err != nil {
			t.Fatalf("batch %d: %v (a failed checkpoint write must not fail the request)", b, err)
		}
	}
	s, _ := srvA.GroupSnapshot(key)
	if s.CheckpointWrites != 1 || s.CheckpointFailures != 1 {
		t.Errorf("checkpoint writes/failures = %d/%d, want 1/1", s.CheckpointWrites, s.CheckpointFailures)
	}
	// The snapshot reads the same store /metrics exports.
	w := reg.Counter("edgetta_serve_checkpoint_writes_total", "group", key.String()).Value()
	f := reg.Counter("edgetta_serve_checkpoint_failures_total", "group", key.String()).Value()
	if w != int64(s.CheckpointWrites) || f != int64(s.CheckpointFailures) {
		t.Errorf("registry checkpoint writes/failures = %d/%d, snapshot %d/%d", w, f, s.CheckpointWrites, s.CheckpointFailures)
	}
	srvA.Close()

	cfg.Injector, cfg.Registry = nil, nil
	srvB := New(cfg)
	defer srvB.Close()
	if _, err := srvB.AddGroup(base, core.BNNorm, core.Config{}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	stB, err := srvB.Stream(sessionToken("sess"))
	if err != nil {
		t.Fatalf("Stream: %v", err)
	}
	if got := stB.Snapshot().AppliedSeq; got != 2 {
		t.Fatalf("resumed AppliedSeq = %d, want 2 (the surviving checkpoint; write at 4 failed)", got)
	}
	for b := 2; b < len(inputs); b++ {
		logits, err := stB.ProcessSeq(ctx, inputs[b], uint64(b+1))
		if err != nil {
			t.Fatalf("replay batch %d: %v", b, err)
		}
		compareLogits(t, b, want[b:b+1], [][]float32{logits.Data})
	}
}

// TestResumeRefusesForeignCheckpoint: a checkpoint whose tensors are not
// exactly the ones the group's state layout generates — here one written
// before the state was one vector, which carries the per-layer bn.usebatch
// flags — is refused at resume, and the error names the tensor.
func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	base := testModel()
	inputs := genBatches(29, 8, 4, data.Fog, 3)
	dir := t.TempDir()
	cfg := Config{QueueCap: 8, Checkpoint: CheckpointConfig{Every: 2, Dir: dir}}
	srvA := New(cfg)
	key, err := srvA.AddGroup(base, core.BNOpt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	stA, _, err := srvA.OpenSession(key, "sess")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	for b := range inputs {
		if _, err := stA.ProcessSeq(context.Background(), inputs[b], uint64(b+1)); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	srvA.Close()

	path := filepath.Join(dir, hex.EncodeToString([]byte("sess"))+".ckpt")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading the checkpoint: %v", err)
	}
	h, tensors, err := serialize.LoadState(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	at := 0
	for at < len(tensors) && strings.HasPrefix(tensors[at].Name, "bn.") {
		at++
	}
	old := append(append(append([]serialize.Tensor(nil), tensors[:at]...),
		serialize.Tensor{Name: "bn.usebatch", Data: make([]float32, at/4)}), tensors[at:]...)
	var buf bytes.Buffer
	if err := serialize.SaveState(&buf, h, old); err != nil {
		t.Fatalf("SaveState: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	srvB := New(cfg)
	defer srvB.Close()
	if _, err := srvB.AddGroup(base, core.BNOpt, core.Config{}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	_, err = srvB.Stream(sessionToken("sess"))
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeBadRequest || !strings.Contains(err.Error(), `"bn.usebatch"`) {
		t.Fatalf("Stream on an older-format checkpoint: err = %v, want CodeBadRequest naming bn.usebatch", err)
	}
}

// TestCloseDrainFailFastOnFault pins the drain bugfix: a closing stream's
// queued request, stuck behind the only replica when that replica is
// quarantined, must fail fast with the typed fault — and Close must return
// promptly instead of waiting out the respawn.
func TestCloseDrainFailFastOnFault(t *testing.T) {
	base := testModel()
	x := genBatches(23, 4, 4, data.Contrast, 3)[0]

	inj := &gateInjector{entered: make(chan struct{}), release: make(chan Fault)}
	srv := New(Config{QueueCap: 8, Injector: inj})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	stA, _ := srv.OpenStream(key)
	stB, _ := srv.OpenStream(key)

	// A's request occupies the only replica (held at the injection gate);
	// B's request queues behind it.
	chA := stA.SubmitCtx(context.Background(), x)
	<-inj.entered
	chB := stB.SubmitCtx(context.Background(), x)

	// B starts closing: drain-then-release blocks on its queued request.
	closeDone := make(chan struct{})
	go func() {
		stB.Close()
		close(closeDone)
	}()
	g := srvGroup(srv, key)
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		closing := stB.st.cur.Closing()
		g.mu.Unlock()
		if closing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream B never entered closing state")
		}
		time.Sleep(time.Millisecond)
	}

	// Quarantine the replica out from under both of them.
	inj.release <- Fault{Kind: FaultPanic}

	wait := func(ch <-chan Response, who string) {
		select {
		case r := <-ch:
			if !errors.Is(r.Err, ErrReplicaFault) {
				t.Errorf("%s: err = %v, want ErrReplicaFault", who, r.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no response after the quarantine (fail-fast broken)", who)
		}
	}
	wait(chA, "in-flight request")
	wait(chB, "closing stream's queued request")
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close still blocked after the quarantine drained its request")
	}

	// The respawned replica serves A's retry.
	chA2 := stA.SubmitCtx(context.Background(), x)
	select {
	case <-inj.entered:
	case <-time.After(10 * time.Second):
		t.Fatalf("no respawned replica dispatched the retry")
	}
	inj.release <- Fault{}
	if r := <-chA2; r.Err != nil {
		t.Fatalf("retry after respawn: %v", r.Err)
	}
}

// TestWorkerBarrierRecoveryIsAQuarantine pins the one fault path: a panic
// on the worker goroutine outside the supervised compute (here a queued
// request whose context watcher panics when take deregisters it) is
// recovered by the worker's last-resort barrier, and that recovery is a
// quarantine like any other — counted, capped in the health history, and
// starting the recovery clock. Each respawned worker is fed another
// poisoned request: a flapping worker.
func TestWorkerBarrierRecoveryIsAQuarantine(t *testing.T) {
	base := testModel()
	x := genBatches(29, 4, 4, data.Contrast, 3)[0]
	srv := New(Config{})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	g := srvGroup(srv, key)
	const recoveries = 40
	for i := 1; i <= recoveries; i++ {
		g.mu.Lock()
		g.pending = append(g.pending, &request{st: &streamState{}, queued: true,
			stopCancel: func() bool { panic("poisoned request") }})
		g.cond.Broadcast()
		g.mu.Unlock()
		if s := pollSnapshot(t, srv, key, func(s GroupSnapshot) bool {
			return s.Faults >= i && s.Respawning == 0 && s.Replicas == 1
		}); s.Faults < i {
			t.Fatalf("poisoned request %d: Faults = %d, the worker's barrier did not quarantine it", i, s.Faults)
		}
	}
	g.mu.Lock()
	g.pending = nil
	started, live, faults := g.nextReplicaID, len(g.replicas), int(g.met.faults.Value())
	g.mu.Unlock()
	if faults < recoveries || faults != started-live {
		t.Errorf("Faults = %d, want %d (>= %d): every started replica but the %d live ones was quarantined", faults, started-live, recoveries, live)
	}
	s, _ := srv.GroupSnapshot(key)
	if len(s.QuarantinedIDs) > 32 {
		t.Errorf("QuarantinedIDs holds %d entries, want the 32-entry cap", len(s.QuarantinedIDs))
	}
	if s.Recovery.Count != 0 {
		t.Fatalf("Recovery.Count = %d before anything was served", s.Recovery.Count)
	}

	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := st.ProcessSeq(ctx, x, 0); err != nil {
		t.Fatalf("first batch after the flapping stopped: %v", err)
	}
	if s, _ := srv.GroupSnapshot(key); s.Recovery.Count < 1 {
		t.Errorf("Recovery.Count = %d after a served batch, want >= 1 (a worker-path fault must start the recovery clock)", s.Recovery.Count)
	}
}

// TestFaultChurnRaces exercises Submit/Close/Snapshot against a steady
// drip of replica panics, quarantines and respawns — the lock-order and
// invariant check for the fault domain, aimed at the race arm. Every
// snapshot taken mid-churn (including mid-respawn) must be internally
// consistent, and the pool size is fixed: a quarantined replica counts as
// respawning until its replacement is live.
func TestFaultChurnRaces(t *testing.T) {
	base := testModel()
	const nStreams, batches = 6, 6
	inputs := streamInputs(nStreams, batches*4, 4, 3)

	// Panic every 9th dispatch: enough churn to overlap quarantines with
	// closes, rare enough that retries converge.
	faults := map[uint64]Fault{}
	for n := uint64(9); n < 500; n += 9 {
		faults[n] = Fault{Kind: FaultPanic}
	}
	inj := &scriptInjector{faults: faults}
	srv := New(Config{QueueCap: 32, Injector: inj})
	defer srv.Close()
	const pool = 2
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, pool)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // snapshot poller: mid-respawn consistency
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s, err := srv.GroupSnapshot(key)
			if err != nil {
				t.Errorf("GroupSnapshot: %v", err)
				return
			}
			if s.Respawning < 0 || s.Replicas < 0 {
				t.Errorf("negative pool counts: replicas %d respawning %d", s.Replicas, s.Respawning)
			}
			if s.Replicas+s.Respawning != pool {
				t.Errorf("Replicas %d + Respawning %d != pool size %d", s.Replicas, s.Respawning, pool)
			}
			if s.Respawns > s.Faults {
				t.Errorf("Respawns %d > Faults %d: a respawn without a quarantine", s.Respawns, s.Faults)
			}
			if len(s.QuarantinedIDs) > 32 {
				t.Errorf("QuarantinedIDs unbounded: %d entries", len(s.QuarantinedIDs))
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nStreams; i++ {
		st, err := srv.OpenStream(key)
		if err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		wg.Add(1)
		go func(i int, st *Stream) {
			defer wg.Done()
			for b, x := range inputs[i] {
				// Two streams abandon mid-run: Close racing live dispatches
				// and quarantines.
				if i < 2 && b == batches/2 {
					st.Close()
					if _, err := st.ProcessSeq(context.Background(), x, 0); !errors.Is(err, ErrStreamClosed) {
						t.Errorf("stream %d: post-Close err = %v, want ErrStreamClosed", i, err)
					}
					return
				}
				seq := uint64(b + 1)
				for attempt := 0; ; attempt++ {
					_, err := st.ProcessSeq(context.Background(), x, seq)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrReplicaFault) || attempt > 100 {
						t.Errorf("stream %d batch %d: %v", i, b, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			st.Close()
		}(i, st)
	}
	wg.Wait()
	close(stop)
	aux.Wait()

	s := pollSnapshot(t, srv, key, func(s GroupSnapshot) bool { return s.Respawning == 0 })
	if s.Faults == 0 {
		t.Fatalf("no faults fired; the churn schedule did not exercise quarantine")
	}
	if s.Replicas != pool {
		t.Errorf("Replicas = %d after churn, want %d", s.Replicas, pool)
	}
}
