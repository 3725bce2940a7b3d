package httpapi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/serve"
	"edgetta/internal/serve/chaos"
	"edgetta/internal/tensor"
)

// TestRetryBackoffDeterministic pins the retry policy's arithmetic: the
// jitter series is a pure function of the seed, the server's RetryAfter
// hint floors the wait, and the cap bounds it.
func TestRetryBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, Base: 10 * time.Millisecond, Cap: 500 * time.Millisecond, Seed: 99}
	a := NewClient("http://x", nil).WithRetry(p)
	b := NewClient("http://x", nil).WithRetry(p)
	for attempt := 0; attempt < 12; attempt++ {
		da, db := a.retry.backoff(attempt, 0), b.retry.backoff(attempt, 0)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", attempt, da, db)
		}
		if da > p.Cap {
			t.Errorf("attempt %d: backoff %v exceeds cap %v", attempt, da, p.Cap)
		}
	}
	// The hint is a floor: with RetryAfter 200ms, attempt 0 (schedule 10ms)
	// must wait at least half the floored value (jitter range [d/2, d]).
	if d := a.retry.backoff(0, 200*time.Millisecond); d < 100*time.Millisecond || d > 200*time.Millisecond {
		t.Errorf("hinted backoff = %v, want within [100ms, 200ms]", d)
	}
	// Different seeds diverge (fixed seeds chosen to differ).
	c := NewClient("http://x", nil).WithRetry(RetryPolicy{MaxAttempts: 8, Base: 10 * time.Millisecond, Cap: 500 * time.Millisecond, Seed: 100})
	same := true
	for attempt := 0; attempt < 12; attempt++ {
		if NewClient("http://x", nil).WithRetry(p).retry.backoff(attempt, 0) != c.retry.backoff(attempt, 0) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("seeds 99 and 100 produced identical 12-step jitter series")
	}
}

// TestRetryClassification pins which failures the client retries: overload
// and replica faults yes, sequence conflicts and bad requests no, transport
// errors yes.
func TestRetryClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&serve.Error{Code: serve.CodeOverloaded}, true},
		{&serve.Error{Code: serve.CodeReplicaFault}, true},
		{&serve.Error{Code: serve.CodeSequence}, false},
		{&serve.Error{Code: serve.CodeBadRequest}, false},
		{&serve.Error{Code: serve.CodeClosed}, false},
		{errors.New("plain"), false},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestHTTPDroppedConnectionsExactlyOnce runs sequenced submits through a
// transport that drops connections at both stages — before the request is
// sent, and after the server processed it but before the client read the
// response. With seeded retries and sequence numbers, every batch must be
// adapted exactly once and every response must match the serial reference:
// the dropped-response case in particular forces the server's cached-replay
// path, since its batch was already applied when the retry arrives.
func TestHTTPDroppedConnectionsExactlyOnce(t *testing.T) {
	base := testModel()
	inputs := genBatches(29, 16, 4, data.GaussianNoise, 3)
	want := serialLogits(t, base, core.BNNorm, core.Config{}, inputs)

	srv := serve.New(serve.Config{QueueCap: 8})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	ts := httptest.NewServer(New(srv, Config{}))
	defer ts.Close()

	// Round trips are counted 1-based and the client is sequential, so the
	// schedule is exact: 1 = open, 2 = seq1, 3 = seq2 (response dropped),
	// 4 = seq2 retry, 5 = seq3 (request dropped), 6 = seq3 retry, 7 = seq4.
	drop := chaos.NewDropRoundTripper(nil, chaos.Plan{
		DropResponseAt: []uint64{3},
		DropRequestAt:  []uint64{5},
	})
	c := NewClient(ts.URL, &http.Client{Transport: drop}).WithRetry(RetryPolicy{
		MaxAttempts: 4, Base: time.Millisecond, Cap: 50 * time.Millisecond, Seed: 7,
	})
	cs, _, err := c.OpenSession(base.Tag, "bnnorm", "drop-sess")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	for b, x := range inputs {
		logits, err := cs.ProcessSeq(x, uint64(b+1))
		if err != nil {
			t.Fatalf("seq %d: %v", b+1, err)
		}
		for i := range want[b] {
			if want[b][i] != logits.Data[i] {
				t.Fatalf("seq %d logit %d: %v, serial %v", b+1, i, logits.Data[i], want[b][i])
			}
		}
	}
	if fired := drop.Injected(); len(fired) != 2 {
		t.Fatalf("drops fired = %v, want both stages", fired)
	}

	// Exactly-once: the dropped-response batch was adapted once (its retry
	// replayed the cache), the dropped-request batch was adapted once (its
	// first attempt never reached the server).
	s, err := srv.GroupSnapshot(key)
	if err != nil {
		t.Fatalf("GroupSnapshot: %v", err)
	}
	if wantImages := len(inputs) * 4; s.Images != wantImages {
		t.Errorf("server adapted %d images, want exactly %d", s.Images, wantImages)
	}
}

// TestHTTPRestartAutoResume restarts the whole server under live clients:
// sessions checkpointed to disk must continue on the new process — via an
// explicit named reopen, and transparently when a stale session token from
// the old process hits the new one (the token encodes the name, the
// checkpoint header the routing). Replayed batches stay bitwise-serial.
func TestHTTPRestartAutoResume(t *testing.T) {
	base := testModel()
	inputs := genBatches(31, 24, 4, data.Fog, 3)
	want := serialLogits(t, base, core.BNNorm, core.Config{}, inputs)
	cfg := serve.Config{QueueCap: 8, Checkpoint: serve.CheckpointConfig{Every: 2, Dir: t.TempDir()}}

	srvA := serve.New(cfg)
	if _, err := srvA.AddGroup(base, core.BNNorm, core.Config{}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	tsA := httptest.NewServer(New(srvA, Config{}))
	cA := NewClient(tsA.URL, nil)
	csA, resumeSeq, err := cA.OpenSession(base.Tag, "bnnorm", "restart-sess")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	if resumeSeq != 0 {
		t.Fatalf("fresh session resumeSeq = %d, want 0", resumeSeq)
	}
	for b := 0; b < 4; b++ {
		if _, err := csA.ProcessSeq(inputs[b], uint64(b+1)); err != nil {
			t.Fatalf("phase A seq %d: %v", b+1, err)
		}
	}
	tsA.Close()
	srvA.Close()

	srvB := serve.New(cfg)
	defer srvB.Close()
	if _, err := srvB.AddGroup(base, core.BNNorm, core.Config{}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	tsB := httptest.NewServer(New(srvB, Config{}))
	defer tsB.Close()

	// Transparent path: the client keeps its old session token and simply
	// points at the new server — the front-end resumes the session from its
	// checkpoint on first touch. The checkpoint holds seq 4, so seq 5 is
	// exactly what the resumed stream expects.
	cB := NewClient(tsB.URL, nil)
	csB := &ClientStream{c: cB, Session: csA.Session}
	for b := 4; b < len(inputs); b++ {
		logits, err := csB.ProcessSeq(inputs[b], uint64(b+1))
		if err != nil {
			t.Fatalf("phase B seq %d: %v", b+1, err)
		}
		for i := range want[b] {
			if want[b][i] != logits.Data[i] {
				t.Fatalf("phase B seq %d logit %d: %v, serial %v (resume must be bitwise)",
					b+1, i, logits.Data[i], want[b][i])
			}
		}
	}
	ss, err := csB.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if ss.Name != "restart-sess" || ss.AppliedSeq != uint64(len(inputs)) {
		t.Errorf("resumed snapshot = %q seq %d, want restart-sess seq %d", ss.Name, ss.AppliedSeq, len(inputs))
	}
	if _, err := csB.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Explicit path: a named reopen on yet another server reports where to
	// rewind. Closing above retired the checkpoint, so run a short second
	// session to restart from.
	csC, _, err := cB.OpenSession(base.Tag, "bnnorm", "restart-sess2")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	for b := 0; b < 2; b++ {
		if _, err := csC.ProcessSeq(inputs[b], uint64(b+1)); err != nil {
			t.Fatalf("sess2 seq %d: %v", b+1, err)
		}
	}
	tsB.Close()
	srvB.Close()

	srvC := serve.New(cfg)
	defer srvC.Close()
	if _, err := srvC.AddGroup(base, core.BNNorm, core.Config{}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	tsC := httptest.NewServer(New(srvC, Config{}))
	defer tsC.Close()
	csD, resumeSeq, err := NewClient(tsC.URL, nil).OpenSession(base.Tag, "bnnorm", "restart-sess2")
	if err != nil {
		t.Fatalf("reopen after restart: %v", err)
	}
	if resumeSeq != 2 {
		t.Fatalf("reopen resumeSeq = %d, want 2 (the checkpoint)", resumeSeq)
	}
	logits, err := csD.ProcessSeq(inputs[2], 3)
	if err != nil {
		t.Fatalf("post-resume seq 3: %v", err)
	}
	for i := range want[2] {
		if want[2][i] != logits.Data[i] {
			t.Fatalf("post-resume logit %d: %v, serial %v", i, logits.Data[i], want[2][i])
		}
	}

	// Stale close: after one more restart, DELETE with the old token ends
	// the episode: the lookup resumes the session from its checkpoint (seq
	// 2), the close deletes the file and answers the final snapshot, and
	// the token is unknown from then on.
	tsC.Close()
	srvC.Close()
	srvD := serve.New(cfg)
	defer srvD.Close()
	if _, err := srvD.AddGroup(base, core.BNNorm, core.Config{}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	tsD := httptest.NewServer(New(srvD, Config{}))
	defer tsD.Close()
	stale := &ClientStream{c: NewClient(tsD.URL, nil), Session: csD.Session}
	ss, err = stale.Close()
	if err != nil {
		t.Fatalf("DELETE with a stale token: %v", err)
	}
	if ss.Name != "restart-sess2" || ss.AppliedSeq != 2 {
		t.Errorf("stale DELETE snapshot = %q seq %d, want restart-sess2 seq 2", ss.Name, ss.AppliedSeq)
	}
	if names := srvD.CheckpointedSessions(); len(names) != 0 {
		t.Errorf("checkpoints after a stale DELETE: %v, want none", names)
	}
	if _, err := stale.Close(); err == nil || !strings.Contains(err.Error(), "unknown_session") {
		t.Errorf("second DELETE: err = %v, want 404 unknown_session", err)
	}
}

// TestConcurrentStaleTokenResumesOnce: on a freshly restarted server,
// concurrent first touches of one stale named token all reach the one
// stream the first of them resumes.
func TestConcurrentStaleTokenResumesOnce(t *testing.T) {
	base := testModel()
	inputs := genBatches(33, 8, 4, data.Fog, 3)
	cfg := serve.Config{QueueCap: 8, Checkpoint: serve.CheckpointConfig{Every: 1, Dir: t.TempDir()}}

	srvA := serve.New(cfg)
	if _, err := srvA.AddGroup(base, core.BNNorm, core.Config{}, 1); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	tsA := httptest.NewServer(New(srvA, Config{}))
	csA, _, err := NewClient(tsA.URL, nil).OpenSession(base.Tag, "bnnorm", "touch")
	if err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	for b, x := range inputs {
		if _, err := csA.ProcessSeq(x, uint64(b+1)); err != nil {
			t.Fatalf("seq %d: %v", b+1, err)
		}
	}
	tsA.Close()
	srvA.Close()

	srvB := serve.New(cfg)
	defer srvB.Close()
	key, err := srvB.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	tsB := httptest.NewServer(New(srvB, Config{}))
	defer tsB.Close()
	const touches = 8
	ids := make([]int, touches)
	errs := make([]error, touches)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range touches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ss, err := (&ClientStream{c: NewClient(tsB.URL, nil), Session: csA.Session}).Snapshot()
			ids[i], errs[i] = ss.ID, err
		}()
	}
	close(start)
	wg.Wait()
	for i := range touches {
		if errs[i] != nil || ids[i] != ids[0] {
			t.Errorf("touch %d: stream_id %d, err %v; want every touch on stream %d", i, ids[i], errs[i], ids[0])
		}
	}
	if s, _ := srvB.GroupSnapshot(key); len(s.Streams) != 1 || s.Streams[0].AppliedSeq != uint64(len(inputs)) {
		t.Errorf("restarted group streams = %+v, want the one resumed at seq %d", s.Streams, len(inputs))
	}
}

// TestChaosExactlyOnce is the serving tier's end-to-end exactly-once check.
// Per seed, a BN-Opt group on 2 replicas takes the seeded fault schedule
// (replica panics, a slow replica, a failed checkpoint write) while named
// sequenced sessions replay corruption streams through seeded-backoff
// retries, and halfway through the workload the whole server is torn down
// and a fresh one comes up on the same checkpoint directory.
//
// Every response is checked bitwise against a serial reference run of the
// same stream. Adaptation state advances deterministically batch by batch,
// so one lost or double-adapted batch on a session's trajectory shifts its
// state and breaks parity for every later batch: zero mismatches proves
// exactly-once adaptation across panics, retries and the restart. What the
// fresh server re-applies between a session's last checkpoint and its last
// applied batch is replay, bounded by the checkpoint lag rather than zero.
func TestChaosExactlyOnce(t *testing.T) {
	const sessions, samples, batch = 3, 16, 4
	m, err := models.ByTag("WRN-AM", rand.New(rand.NewSource(1)), models.ReproScale)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]chaosSession, sessions)
	for i := range work {
		xs := genBatches(int64(1000+i), samples, batch, data.AllCorruptions[i%len(data.AllCorruptions)], 3)
		work[i] = chaosSession{xs: xs, ref: serialLogits(t, m, core.BNOpt, core.Config{}, xs)}
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runChaos(t, seed, m, work, batch) })
	}
}

// chaosSession is one named stream's batches and their serial logits.
type chaosSession struct {
	xs  []*tensor.Tensor
	ref [][]float32
}

// chaosCkptEvery is the checkpoint cadence of both server incarnations;
// the replay bound is derived from it.
const chaosCkptEvery = 2

// runChaos runs the scenario for one seed and checks its invariants.
func runChaos(t *testing.T, seed int64, m *models.Model, work []chaosSession, batch int) {
	total := 0
	for _, w := range work {
		total += len(w.xs)
	}
	restartAt := total / 2
	// State poisoning is left out of the stock schedule: a numeric-guard
	// reset changes the adaptation trajectory by design, which would
	// (correctly) break the parity checked here.
	sp := chaos.Seeded(seed, 3, restartAt)
	inj := chaos.NewInjector(chaos.Plan{PanicAt: sp.PanicAt, DelayAt: sp.DelayAt, Delay: sp.Delay, CheckpointFailAt: sp.CheckpointFailAt})
	dir := t.TempDir()
	host := func() (*serve.Server, *httptest.Server, error) {
		srv := serve.New(serve.Config{
			QueueCap:   64,
			Watchdog:   30 * time.Second,
			Checkpoint: serve.CheckpointConfig{Every: chaosCkptEvery, Dir: dir},
			Injector:   inj,
		})
		if _, err := srv.AddGroup(m, core.BNOpt, core.Config{}, 2); err != nil {
			srv.Close()
			return nil, nil, err
		}
		return srv, httptest.NewServer(New(srv, Config{})), nil
	}
	srvA, tsA, err := host()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tsA.Close(); srvA.Close() })
	var base atomic.Value
	base.Store(tsA.URL)

	// The session that serves the restartAt-th batch kills server A —
	// listener first, so no new connection reaches it, while requests on
	// open connections meet the closed server — and brings up B on the same
	// checkpoint directory; clients find it through base.
	key := serve.GroupKey{Algo: core.BNOpt, ModelTag: m.Tag}
	var progress atomic.Int64
	var snapA serve.GroupSnapshot
	var srvB *serve.Server
	var tsB *httptest.Server
	var restartErr error
	restart := func() {
		tsA.Listener.Close()
		srvA.Close()
		snapA, _ = srvA.GroupSnapshot(key) // key is A's one group
		if srvB, tsB, restartErr = host(); restartErr == nil {
			base.Store(tsB.URL)
		}
	}

	type result struct {
		served, mismatched int
		err                error
	}
	results := make([]result, len(work))
	var wg sync.WaitGroup
	deadline := time.Now().Add(2 * time.Minute)
	for i := range work {
		wg.Add(1)
		go func(i int, w chaosSession) {
			defer wg.Done()
			r := &results[i]
			name := fmt.Sprintf("chaos-%d-%d", seed, i)
			seq := uint64(0) // last sequence number confirmed applied
			seen := make([]bool, len(w.xs))
			for seq < uint64(len(w.xs)) {
				if time.Now().After(deadline) {
					r.err = fmt.Errorf("session %s: deadline exceeded at seq %d", name, seq)
					return
				}
				c := NewClient(base.Load().(string), nil).WithRetry(RetryPolicy{
					MaxAttempts: 8, Base: 5 * time.Millisecond, Cap: 500 * time.Millisecond,
					Seed: seed*1000 + int64(i),
				})
				c.Binary = true
				stream, resumeSeq, err := c.OpenSession(m.Tag, "bnopt", name)
				if err != nil {
					// Server down mid-restart, or the session is still
					// registered on the dying incarnation: back off.
					time.Sleep(20 * time.Millisecond)
					continue
				}
				// A checkpoint trailing what was seen applied means
				// resubmitting from it; the replays must match too.
				seq = min(seq, resumeSeq)
				for seq < uint64(len(w.xs)) {
					logits, err := stream.ProcessSeq(w.xs[seq], seq+1)
					if err != nil {
						var se *serve.Error
						if errors.As(err, &se) && se.Code == serve.CodeSequence && se.ExpectSeq > 0 {
							seq = se.ExpectSeq - 1
							continue
						}
						break // reopen against the current host
					}
					if !bitEqual(logits.Data, w.ref[seq]) {
						r.mismatched++
					}
					if !seen[seq] {
						seen[seq] = true
						r.served++
						if progress.Add(1) == int64(restartAt) {
							restart()
						}
					}
					seq++
				}
			}
		}(i, work[i])
	}
	wg.Wait()
	if tsB != nil {
		t.Cleanup(func() { tsB.Close(); srvB.Close() })
	}
	served, mismatched := 0, 0
	for _, r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		served += r.served
		mismatched += r.mismatched
	}
	if restartErr != nil || srvB == nil {
		t.Fatalf("the server did not restart: %v", restartErr)
	}
	snapB, _ := srvB.GroupSnapshot(key)

	if served != total || mismatched != 0 {
		t.Errorf("served %d of %d batches, %d diverged from the serial reference", served, total, mismatched)
	}
	injected := inj.Injected()
	panics, ckptFails := 0, 0
	for _, line := range injected {
		if strings.HasPrefix(line, "panic:") {
			panics++
		}
		if strings.HasPrefix(line, "ckptfail:") {
			ckptFails++
		}
	}
	if panics < 3 || ckptFails < 1 {
		t.Errorf("%d panics and %d checkpoint failures fired, want >= 3 and >= 1: %q", panics, ckptFails, injected)
	}
	if snapB.Requests == 0 {
		t.Errorf("the restarted server served nothing")
	}
	recoveries := snapA.Recovery.Count + snapB.Recovery.Count
	if recoveries == 0 {
		t.Errorf("no fault-to-served recovery was recorded")
	}
	images, expected := snapA.Images+snapB.Images, total*batch
	t.Logf("injected %q; %d/%d batches served, %d images for %d expected, %d recoveries",
		injected, served, total, images, expected, recoveries)
	// The checkpoint can trail the applied position by up to 2*Every-1
	// batches: the cadence lag plus one failed write keeping the previous
	// checkpoint.
	if limit := len(work) * (2*chaosCkptEvery - 1) * batch; images < expected || images-expected > limit {
		t.Errorf("server adapted %d images for %d expected: want none lost and at most %d replayed", images, expected, limit)
	}
}

// bitEqual compares float32 slices bit for bit: NaN-safe, and -0 != +0.
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
