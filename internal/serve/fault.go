package serve

import (
	"fmt"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// Replica supervision. Every dispatched Process call runs in a dedicated
// compute goroutine under a recover barrier, while the replica's worker
// watches the result channel against the optional watchdog deadline. A
// panicked or wedged replica is quarantined: it is dropped from the pool,
// its in-flight requests (plus, for stateful groups, the stream's queued
// requests — protocol order must stay exact) fail with the retryable
// ErrReplicaFault, and a fresh replica is cloned from the group template in
// the background. The faulted dispatch never commits state — a stream's
// adaptation state advances only when its batch completes — so a client
// retry with the same sequence number is idempotent by construction.

// FaultKind enumerates the failures an injector can place into the serving
// path (see internal/serve/chaos for the seeded implementation).
type FaultKind int

const (
	// FaultNone injects nothing; the dispatch proceeds normally.
	FaultNone FaultKind = iota
	// FaultPanic panics inside the replica's compute goroutine, as a
	// crashed kernel or corrupted replica would.
	FaultPanic
	// FaultDelay sleeps Fault.Delay before processing: a slow replica,
	// and — when the delay exceeds Config.Watchdog — a wedged one.
	FaultDelay
	// FaultPoison corrupts the captured post-Process adaptation state with
	// a NaN, as numerically diverged adaptation would (stateful groups
	// only; the numeric-health guard is expected to catch it).
	FaultPoison
)

// Fault is one injected failure.
type Fault struct {
	Kind  FaultKind
	Delay time.Duration
}

// FaultInjector is the serving tier's chaos hook. A nil injector (the
// production configuration) costs one nil check per dispatch. Injectors
// must be safe for concurrent use: replicas consult them in parallel.
type FaultInjector interface {
	// ProcessFault is consulted once per dispatched Process call.
	ProcessFault(group string, replica int) Fault
	// CheckpointFault is consulted before each checkpoint write; a non-nil
	// error simulates a failed write (the previous checkpoint file stays,
	// exactly as a failed disk write leaves it).
	CheckpointFault(session string, seq uint64) error
}

// computeResult carries one supervised Process call's outcome back to the
// worker. Exactly one of panicked / the payload fields is meaningful.
type computeResult struct {
	logits *tensor.Tensor
	// state is the stream's post-batch adaptation state (stateful groups);
	// the worker commits it only on success, so a fault never half-applies.
	state *core.AdapterState
	// resets counts numeric-guard source resets performed for this batch;
	// images the batch's image total; activation what the replica's arena
	// held when Process returned.
	resets     int
	images     int
	activation int
	panicked   any
}

// runSupervised executes one dispatch under supervision and returns false
// when the replica was quarantined (the worker must exit).
func (g *group) runSupervised(r *replica, reqs []*request) bool {
	start := time.Now()
	var prev *core.AdapterState
	if g.stateful {
		// Safe without g.mu: only the worker holding the stream's in-flight
		// request commits st.state, and that worker is us.
		prev = reqs[0].st.state
	}
	done := make(chan computeResult, 1) // buffered: an abandoned compute goroutine must not leak
	go g.compute(r, reqs, prev, done)

	var res computeResult
	if wd := g.cfg.Watchdog; wd > 0 {
		t := time.NewTimer(wd)
		select {
		case res = <-done:
			t.Stop()
		case <-t.C:
			// The compute goroutine is wedged (or just slow); abandon it —
			// it writes only replica-local state and its buffered channel —
			// and quarantine the replica with it.
			g.quarantine(r, reqs, fmt.Sprintf("watchdog: no result within %v", wd))
			return false
		}
	} else {
		res = <-done
	}
	if res.panicked != nil {
		g.quarantine(r, reqs, fmt.Sprintf("panic: %v", res.panicked))
		return false
	}
	g.commit(r, reqs, res, start)
	return true
}

// compute runs the adapter Process call for one dispatch. It owns the
// replica (and, for stateful groups, the stream's in-flight gate) but takes
// no locks, so a panic or wedge here can never poison shared state: the
// recover barrier converts panics into a result, and everything it mutates
// besides the replica is delivered through the buffered channel.
func (g *group) compute(r *replica, reqs []*request, prev *core.AdapterState, done chan<- computeResult) {
	defer func() {
		if p := recover(); p != nil {
			done <- computeResult{panicked: p}
		}
	}()

	var fault Fault
	if inj := g.cfg.Injector; inj != nil {
		fault = inj.ProcessFault(g.key.String(), r.id)
		switch fault.Kind {
		case FaultPanic:
			panic("injected replica fault")
		case FaultDelay:
			time.Sleep(fault.Delay)
		}
	}

	// Build the Process input: a single request passes through unchanged,
	// a coalesced batch concatenates the requests' images in queue order
	// into the replica's reusable buffer.
	n := 0
	for _, req := range reqs {
		n += req.n
	}
	var x *tensor.Tensor
	if len(reqs) == 1 {
		x = reqs[0].x
	} else {
		need := n * g.inC * g.inHW * g.inHW
		if cap(r.concat) < need {
			r.concat = make([]float32, need)
		}
		buf := r.concat[:need]
		off := 0
		for _, req := range reqs {
			off += copy(buf[off:], req.x.Data)
		}
		x = tensor.FromSlice(buf, n, g.inC, g.inHW, g.inHW)
	}

	res := computeResult{images: n}
	if g.stateful {
		sa := r.adapter.(core.Stateful)
		sa.RestoreState(prev)
		res.logits = r.adapter.Process(x)
		res.state = sa.CaptureState()
		if fault.Kind == FaultPoison {
			res.state = res.state.Poisoned()
		}
		if !core.StateFinite(res.state) {
			// Numeric-health guard: adaptation diverged (NaN/Inf in the BN
			// tensors or optimizer moments). Serving from a poisoned state
			// would corrupt every later batch of the stream, so hard-reset
			// to the episode-start snapshot and re-serve this batch from
			// source.
			res.resets++
			sa.RestoreState(g.initial)
			res.logits = r.adapter.Process(x)
			res.state = sa.CaptureState()
			if !core.StateFinite(res.state) {
				// The input itself diverges even from source; pin the
				// stream at the source state rather than poisoning it.
				res.resets++
				res.state = g.initial
			}
		}
	} else {
		res.logits = r.adapter.Process(x)
	}
	res.activation = r.model.ActivationBytes()
	done <- res
}

// quarantine takes a faulted replica out of service: drop it from the pool,
// fail its in-flight requests (and the stream's queued requests — see
// below) with ErrReplicaFault, record the fault for health reporting and
// recovery-latency tracking, and start a background respawn. It is the one
// fault path: the worker's last-resort barrier calls it with no requests.
func (g *group) quarantine(r *replica, reqs []*request, reason string) {
	now := time.Now()
	g.mu.Lock()
	g.dropReplicaLocked(r)
	g.met.faults.Inc()
	g.quarantinedIDs = append(g.quarantinedIDs, r.id)
	if len(g.quarantinedIDs) > 32 {
		g.quarantinedIDs = g.quarantinedIDs[len(g.quarantinedIDs)-32:]
	}
	g.lastFaultAt = now
	ra := g.retryAfterLocked(len(g.pending) + 1)
	err := errReplicaFault(g.key, r.id, reason, ra)

	victims := append([]*request(nil), reqs...)
	if len(reqs) > 0 { // the worker's barrier arrives holding no dispatch
		g.active--
	}
	for _, q := range reqs {
		if g.stateful {
			// The faulted batch did not advance the stream's state, so every
			// queued request of the stream was admitted against a protocol
			// position that no longer exists. The cursor cuts them too
			// (cascading keeps per-stream order exact) and rolls the
			// sequence reservation back to the last applied batch, so the
			// client's retry is accepted.
			cut := q.st.cur.Fault()
			victims = append(victims, g.removeQueuedLocked(func(o *request) bool { return o.st == q.st && cut.Kills(o.seq) })...)
		} else {
			q.st.cur.Drop()
		}
	}
	// Fail-fast requests queued by streams that are closing: their Close is
	// draining on the cursor, and with a replica down it must not wait out
	// the respawn for a response the owner will never read.
	victims = append(victims, g.removeQueuedLocked(func(q *request) bool { return q.st.cur.Closing() })...)

	g.met.respawning.Add(1)
	g.spawn("respawn", g.respawn)
	g.mu.Unlock()

	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Instant("serve", "replica_fault:"+g.key.String(), r.id,
			telemetry.Arg{Key: "reason", Value: reason},
			telemetry.Arg{Key: "failed_requests", Value: len(victims)})
	}
	for _, q := range victims {
		q.resp <- Response{Err: err}
	}
}

// respawn replaces a quarantined replica: clone the pristine template
// (outside any lock — it is the expensive part), build a fresh adapter and
// start its worker. Runs in the background so quarantine never blocks on a
// model clone. The respawning mark is cleared and the replacement joined
// in one critical section, so no snapshot sees the pool short of its size.
// A closed group skips the spawn unless requests are still draining — then
// the fresh worker is what drains them. Nothing of the quarantined replica
// is reused: its activation arena dies with its model (an abandoned compute
// goroutine may still be writing into it), and the replacement's first
// batch fills a new one.
func (g *group) respawn() {
	r, err := g.newReplica()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.met.respawning.Add(-1)
	if err != nil || (g.closed && len(g.pending) == 0) {
		return
	}
	g.met.respawns.Inc()
	g.startReplicaLocked(r)
}

// recoverBarrier is the last-resort recover path for the goroutines
// group.spawn starts (the respawner; a worker has recoverWorker): a panic
// there is a bug, but it must take down one goroutine, not the process
// serving every other stream.
func (g *group) recoverBarrier(op string) {
	p := recover()
	if p == nil {
		return
	}
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Instant("serve", "internal_panic:"+g.key.String(), 0,
			telemetry.Arg{Key: "op", Value: op},
			telemetry.Arg{Key: "panic", Value: fmt.Sprint(p)})
	}
}

// recoverWorker is the worker goroutine's last-resort barrier: a panic
// outside the supervised compute path (take/commit — a bug, not a replica
// fault) still quarantines the replica, so the group keeps an accurate view
// and respawns a replacement. Best-effort: requests the panicking frame
// held are not recoverable here.
func (g *group) recoverWorker(r *replica) {
	if p := recover(); p != nil {
		g.quarantine(r, nil, fmt.Sprintf("worker panic: %v", p))
	}
}
