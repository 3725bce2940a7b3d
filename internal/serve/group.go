package serve

import (
	"context"
	"os"
	"slices"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/serve/lifecycle"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// groupMetrics is a group's registered telemetry handles — the one store
// of its lifetime counts: the dispatch path updates them under g.mu and
// snapshot() reads them back under g.mu, so there is no second copy to keep
// in step. A server built without Config.Registry registers them into a
// private registry nobody scrapes.
type groupMetrics struct {
	queueDepth    *telemetry.Gauge   // current pending requests
	pendingImages *telemetry.Gauge   // image total of the pending queue
	openStreams   *telemetry.Gauge   // streams currently open
	replicas      *telemetry.Gauge   // live replica count (quarantined replicas excluded)
	requests      *telemetry.Counter // lifetime requests served
	images        *telemetry.Counter // lifetime images served
	batches       *telemetry.Counter // lifetime Process calls
	coalesced     *telemetry.Counter // lifetime requests served in shared Process calls
	shed          *telemetry.Counter // lifetime requests rejected at admission (AdmitShed)
	canceled      *telemetry.Counter // lifetime requests canceled while queued
	respawning    *telemetry.Gauge   // replicas currently being respawned
	faults        *telemetry.Counter // lifetime replica quarantines (panic/watchdog)
	respawns      *telemetry.Counter // lifetime completed replica respawns
	numericResets *telemetry.Counter // lifetime numeric-guard source resets
	ckptWrites    *telemetry.Counter // lifetime successful checkpoint writes
	ckptFailures  *telemetry.Counter // lifetime failed checkpoint writes
	activation    *telemetry.Gauge   // bytes the live replicas' activation arenas hold
}

// newGroupMetrics registers the group's metrics under its key label.
func newGroupMetrics(reg *telemetry.Registry, key GroupKey) *groupMetrics {
	l := []string{"group", key.String()}
	return &groupMetrics{
		queueDepth:    reg.Gauge("edgetta_serve_queue_depth", l...),
		pendingImages: reg.Gauge("edgetta_serve_pending_images", l...),
		openStreams:   reg.Gauge("edgetta_serve_open_streams", l...),
		replicas:      reg.Gauge("edgetta_serve_replicas", l...),
		requests:      reg.Counter("edgetta_serve_requests_total", l...),
		images:        reg.Counter("edgetta_serve_images_total", l...),
		batches:       reg.Counter("edgetta_serve_batches_total", l...),
		coalesced:     reg.Counter("edgetta_serve_coalesced_requests_total", l...),
		shed:          reg.Counter("edgetta_serve_shed_total", l...),
		canceled:      reg.Counter("edgetta_serve_canceled_total", l...),
		respawning:    reg.Gauge("edgetta_serve_respawning", l...),
		faults:        reg.Counter("edgetta_serve_replica_faults_total", l...),
		respawns:      reg.Counter("edgetta_serve_respawns_total", l...),
		numericResets: reg.Counter("edgetta_serve_numeric_resets_total", l...),
		ckptWrites:    reg.Counter("edgetta_serve_checkpoint_writes_total", l...),
		ckptFailures:  reg.Counter("edgetta_serve_checkpoint_failures_total", l...),
		activation:    reg.Gauge("edgetta_serve_activation_bytes", l...),
	}
}

// replica is one shared model instance: a deep clone of the group's model
// wrapped in its adapter. A replica processes one batch at a time; its
// owning worker goroutine is the only one that touches the adapter.
type replica struct {
	id      int
	model   *models.Model
	adapter core.Adapter
	// activation is model.ActivationBytes() as of the replica's last
	// committed dispatch, guarded by the group mutex (the model itself is
	// the compute goroutine's).
	activation int
	// concat is the replica's reusable coalescing buffer. Reuse is safe:
	// only stateless adapters coalesce, their Process never reads the
	// input again after returning, and the next coalesced call fully
	// overwrites the prefix it uses.
	concat []float32
}

// streamState is the server-side record of one open stream.
type streamState struct {
	id int
	// name is the session name for named (recoverable) streams, "" for
	// anonymous ones. Named stateful streams are checkpointed every
	// Checkpoint.Every applied batches.
	name string
	// cur decides the stream's lifecycle: sequence gate, in-flight gate,
	// close-drain, replay and checkpoint cadence. Guarded by the group
	// mutex; the shell feeds it events and acts on its verdicts, and never
	// does arithmetic of its own on what it holds.
	cur lifecycle.Cursor[Response]
	// state is the stream's adaptation state between requests (stateful
	// groups only). It is accessed only by the worker whose dispatch holds
	// the cursor's in-flight gate, or under the group mutex between
	// requests, so it needs no lock of its own. Stream.Close nils it only
	// after the cursor reports drained, never while a worker may read it.
	state *core.AdapterState

	// per-stream metrics, guarded by the group mutex.
	requests int
	images   int
	e2e      telemetry.Hist
}

// request is one pending SubmitCtx.
type request struct {
	st  *streamState
	ctx context.Context
	x   *tensor.Tensor
	n   int // images
	// seq is the request's sequence number (0 = unsequenced); the stream's
	// cursor dispatches a sequenced request only at its protocol position,
	// no matter where it sits in the queue.
	seq uint64
	// checkpoint is the cursor's dispatch-time answer: this batch, once
	// applied, is on the stream's checkpoint cadence.
	checkpoint bool
	enq        time.Time
	// queued is true while the request sits in g.pending (guarded by
	// g.mu). Exactly one of the dispatcher and the cancellation watcher
	// flips it, so exactly one of them delivers the response.
	queued bool
	// stopCancel deregisters the context watcher; the dispatcher calls it
	// when it takes the request off the queue.
	stopCancel func() bool
	resp       chan Response
}

// Response delivers one request's results.
type Response struct {
	// Logits holds one row of class scores per submitted image.
	Logits *tensor.Tensor
	Err    error
	// QueueWait is the time from Submit to Process start; Service is the
	// Process call's duration (shared by every request coalesced into it).
	QueueWait time.Duration
	Service   time.Duration
	// BatchImages is the total image count of the Process call this
	// request was served by (> the request's own count when coalesced).
	BatchImages int
}

// group is one replica pool plus its pending queue and metrics.
type group struct {
	key      GroupKey
	cfg      Config
	stateful bool
	initial  *core.AdapterState

	// template is the pristine clone every replica is built from; algo and
	// acfg build their adapters.
	template *models.Model
	algo     core.Algorithm
	acfg     core.Config

	inC, inHW int

	mu   sync.Mutex
	cond *sync.Cond
	// replicas is the live pool: AddGroup's count, less the quarantined
	// replicas whose respawn has not yet come up.
	replicas      []*replica
	nextReplicaID int
	// active counts dispatched-but-unfinished Process calls.
	active int
	// pending is the FIFO request queue; pendingImages tracks its image
	// total for the coalescing policy and queueMax for the stats.
	pending       []*request
	pendingImages int
	queueMax      int
	timerArmed    bool
	closed        bool
	nextStreamID  int
	streams       map[int]*streamState

	// met holds the lifetime counts and live gauges; the plain fields below
	// are the figures that have no registered metric.
	met          *groupMetrics
	maxCoalesced int
	// quarantinedIDs keeps the recent quarantined replica IDs for the
	// health snapshot.
	quarantinedIDs []int
	// lastFaultAt, when set, starts the fault→first-served recovery clock;
	// the next successful commit observes it into recoveryHist.
	lastFaultAt  time.Time
	recoveryHist *telemetry.Hist
	// serviceEMA is a cheap running estimate of per-Process wall time,
	// feeding the retry-after suggestion on shed (reading the histogram's
	// Summary would sort the window under pressure).
	serviceEMA time.Duration
	batchHist  *telemetry.Hist // service time per Process call
	e2eHist    *telemetry.Hist // submit-to-response time per request

	wg sync.WaitGroup
}

// open adds a stream to the group under a name the server's session
// table holds ("" for an anonymous stream). A non-nil state is the
// checkpoint the stream resumes from, applied through seq; nil starts the
// episode fresh.
func (g *group) open(name string, state *core.AdapterState, seq uint64) (*streamState, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	every := 0
	if g.ckptFile(name) != "" {
		every = g.cfg.Checkpoint.Every
	}
	st := &streamState{id: g.nextStreamID, name: name, cur: lifecycle.Open[Response](every)}
	g.nextStreamID++
	if g.stateful {
		st.state = g.initial
		if state != nil {
			// Resume: the stream continues exactly where the checkpoint
			// left it — state and sequence position. Batches the client
			// submitted after the checkpoint get CodeSequence/ExpectSeq
			// telling it where to rewind to.
			st.state = state
			st.cur.Resume(seq)
		}
	}
	g.streams[st.id] = st
	g.met.openStreams.Set(int64(len(g.streams)))
	return st, nil
}

// close shuts the group down: new submissions fail, queued requests drain
// and the workers exit.
func (g *group) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// closeStream implements Stream.Close's drain-then-release contract: mark
// the stream closing (later submissions fail with ErrStreamClosed), wait
// for every already-admitted request to finish — a queued or in-flight
// request still references the stream's adaptation state — and only then
// drop the stream record and release the state. It reports false when an
// earlier Close got there first.
func (g *group) closeStream(st *streamState) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !st.cur.Close() {
		return false
	}
	g.cond.Broadcast() // wake submitters blocked on admission for this stream
	for !st.cur.Drained() {
		g.cond.Wait()
	}
	// An explicitly closed session ended its episode: its checkpoint is
	// deleted before the caller releases the name, so a reopen starts
	// fresh.
	if path := g.ckptFile(st.name); path != "" {
		os.Remove(path)
	}
	delete(g.streams, st.id)
	st.state = nil
	g.met.openStreams.Set(int64(len(g.streams)))
	g.cond.Broadcast()
	return true
}

// newReplica builds a replica not yet in the pool: a deep clone of the
// pristine template — byte-identical to every other replica at its frozen
// weights, so stream state restores cleanly onto it — wrapped in a fresh
// adapter. The clone is the expensive part; callers hold no lock.
func (g *group) newReplica() (*replica, error) {
	m := g.template.Clone()
	a, err := core.New(g.algo, m, g.acfg)
	if err != nil {
		return nil, err
	}
	return &replica{model: m, adapter: a}, nil
}

// startReplicaLocked adds r to the pool under the next replica id and
// spawns its worker. The caller holds g.mu.
func (g *group) startReplicaLocked(r *replica) {
	r.id = g.nextReplicaID
	g.nextReplicaID++
	g.replicas = append(g.replicas, r)
	g.met.replicas.Set(int64(len(g.replicas)))
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.recoverWorker(r)
		g.serveLoop(r)
	}()
}

// spawn runs fn on a housekeeping goroutine the group waits for at Close,
// behind the last-resort recover barrier.
func (g *group) spawn(op string, fn func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer g.recoverBarrier(op)
		fn()
	}()
}

// dropReplicaLocked removes r from the pool; the caller holds g.mu and r's
// worker is about to exit.
func (g *group) dropReplicaLocked(r *replica) {
	g.replicas = slices.DeleteFunc(g.replicas, func(x *replica) bool { return x == r })
	g.met.replicas.Set(int64(len(g.replicas)))
	g.updateActivationLocked()
}

// updateActivationLocked publishes what the live replicas' arenas hold.
func (g *group) updateActivationLocked() {
	sum := 0
	for _, r := range g.replicas {
		sum += r.activation
	}
	g.met.activation.Set(int64(sum))
}

// retryAfterLocked suggests a client backoff for a shed rejection: the
// time for the live pool to work off the current queue, estimated from the
// service-time EMA. Clamped to [1ms, 2s]; 25ms before any call completed.
func (g *group) retryAfterLocked(depth int) time.Duration {
	live := len(g.replicas)
	if live < 1 {
		live = 1
	}
	ra := 25 * time.Millisecond
	if g.serviceEMA > 0 {
		ra = g.serviceEMA * time.Duration(depth) / time.Duration(live)
	}
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	if ra > 2*time.Second {
		ra = 2 * time.Second
	}
	return ra
}

// submit admits one request under the group's admission policy. The
// returned channel is buffered, so neither workers nor the cancellation
// watcher ever block delivering. The request context is honored while the
// request is blocked on admission and while it waits in the queue; once a
// replica dispatches it, it runs to completion.
//
// seq, when nonzero on a stateful group, is the stream's monotonic submit
// sequence number, making retries idempotent: a duplicate of the last
// applied batch replays the cached response without re-adapting, a
// duplicate of an admitted-but-unsettled batch waits for the original (and
// takes over as the retry if the original faults), and anything else out
// of order fails with CodeSequence carrying the expected number.
func (g *group) submit(ctx context.Context, st *streamState, x *tensor.Tensor, seq uint64) <-chan Response {
	resp := make(chan Response, 1)
	fail := func(err error) <-chan Response {
		resp <- Response{Err: err}
		return resp
	}
	if x == nil || x.NDim() != 4 {
		return fail(errBadRequest("%s: batch must be NCHW, got %v", g.key, shapeOf(x)))
	}
	if x.Dim(1) != g.inC || x.Dim(2) != g.inHW || x.Dim(3) != g.inHW {
		return fail(errBadRequest("%s: batch shape %v does not match model input %dx%dx%d",
			g.key, x.Shape(), g.inC, g.inHW, g.inHW))
	}
	if ctx.Err() != nil {
		return fail(ctxErr(ctx))
	}
	if !g.stateful {
		// Stateless groups have no adaptation state to double-apply, so
		// sequence numbers carry no obligation; re-processing a retried
		// batch is byte-identical and side-effect free.
		seq = 0
	}
	req := &request{st: st, ctx: ctx, x: x, n: x.Dim(0), seq: seq, enq: time.Now(), resp: resp}

	g.mu.Lock()
	err := g.admitLocked(req)
	g.mu.Unlock()
	if err != nil {
		return fail(err)
	}
	return resp
}

// admitLocked takes req through the stream's sequence gate and the group's
// admission policy and, when both pass, onto the queue. A replayed
// duplicate is answered here. On an error after the cursor reserved req's
// position, the reservation is rolled back, failing the queued requests
// that strands.
func (g *group) admitLocked(req *request) error {
	st, ctx := req.st, req.ctx
	var verdict lifecycle.Verdict
	var expect uint64
	// A duplicate of an admitted position waits for the original to
	// settle: committed, it replays; faulted, this submit takes over.
	g.waitLocked(ctx, func() bool {
		if g.closed {
			return false
		}
		verdict, expect = st.cur.Submit(req.seq)
		return verdict == lifecycle.Wait
	})
	switch {
	case st.cur.Closing():
		return ErrStreamClosed
	case g.closed:
		return ErrClosed
	case verdict == lifecycle.Wait: // only the context expired
		return ctxErr(ctx)
	case verdict == lifecycle.Gap:
		return errSequence(g.key, req.seq, expect)
	case verdict == lifecycle.Replay:
		// The batch was applied but its response was lost (a connection
		// can drop between apply and read): serve the cached response
		// without re-adapting.
		req.resp <- st.cur.Replayed()
		return nil
	}

	full := func() bool { return len(g.pending) >= g.cfg.QueueCap && !g.closed && !st.cur.Closing() }
	var err error
	if full() && g.cfg.Admission == AdmitShed {
		g.met.shed.Inc()
		err = errOverloaded(g.key, len(g.pending), g.retryAfterLocked(len(g.pending)))
	} else {
		g.waitLocked(ctx, full) // AdmitBlock: wait for space
		switch {
		case st.cur.Closing():
			err = ErrStreamClosed
		case g.closed:
			err = ErrClosed
		case full(): // only the context expired
			err = ctxErr(ctx)
		}
	}
	if err != nil {
		g.cutLocked(st, st.cur.AdmissionFailed(req.seq))
		return err
	}

	req.queued = true
	st.cur.Enqueued()
	g.pending = append(g.pending, req)
	g.pendingImages += req.n
	if len(g.pending) > g.queueMax {
		g.queueMax = len(g.pending)
	}
	g.updateQueueGauges()
	if ctx.Done() != nil {
		// Watch for expiry while queued; the dispatcher deregisters this
		// when it takes the request.
		req.stopCancel = context.AfterFunc(ctx, func() { g.cancelQueued(req) })
	}
	g.cond.Broadcast()
	return nil
}

// waitLocked blocks on the group's condition while blocked() holds, waking
// on ctx expiry too — the watcher only broadcasts, the loop re-checks ctx.
// The caller holds g.mu (released inside cond.Wait) and tells "unblocked"
// from "expired" by its own state afterwards. blocked is never called again
// once it has returned false, so it may reserve on the way out.
func (g *group) waitLocked(ctx context.Context, blocked func() bool) {
	if !blocked() {
		return
	}
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	for ctx.Err() == nil {
		g.cond.Wait()
		if !blocked() {
			break
		}
	}
	stop()
}

// cancelQueued removes a still-queued request whose context expired and
// delivers the typed context error. If the dispatcher got there first
// (queued already false) the request proceeds normally and this is a no-op.
func (g *group) cancelQueued(req *request) {
	g.mu.Lock()
	if !req.queued {
		g.mu.Unlock()
		return
	}
	g.pending = slices.DeleteFunc(g.pending, func(q *request) bool { return q == req })
	req.queued = false
	g.pendingImages -= req.n
	g.met.canceled.Inc()
	// A canceled sequenced request leaves a hole in the protocol order;
	// later queued positions of the stream can never dispatch, so they are
	// failed too and the reservation rolls back to accept a resubmit.
	g.cutLocked(req.st, req.st.cur.CancelQueued(req.seq))
	g.mu.Unlock()
	req.resp <- Response{Err: ctxErr(req.ctx)}
}

// cutLocked removes the queued requests of st that cut strands and fails
// each with the sequence number the stream accepts next. The response
// channels are buffered, so delivering under the lock never blocks.
func (g *group) cutLocked(st *streamState, cut lifecycle.Cut) {
	for _, q := range g.removeQueuedLocked(func(q *request) bool { return q.st == st && cut.Kills(q.seq) }) {
		q.resp <- Response{Err: errSequence(g.key, q.seq, cut.ExpectSeq)}
	}
}

// removeQueuedLocked takes every queued request kill selects off the queue
// — flipping its queued flag, so a racing cancellation becomes a no-op, and
// telling its cursor — and returns them for the caller to fail. It
// publishes the queue's new shape and broadcasts even when nothing matched,
// on behalf of the event that called it: queue space was freed, a Close may
// be draining on the cursor, and a rolled-back position may be what a
// waiting duplicate takes over.
func (g *group) removeQueuedLocked(kill func(*request) bool) []*request {
	var victims []*request
	g.pending = slices.DeleteFunc(g.pending, func(q *request) bool {
		if !kill(q) {
			return false
		}
		g.dequeueLocked(q)
		g.pendingImages -= q.n
		q.st.cur.Drop()
		victims = append(victims, q)
		return true
	})
	g.updateQueueGauges()
	g.cond.Broadcast()
	return victims
}

// updateQueueGauges publishes the queue's current shape. Callers hold
// g.mu; the gauge writes are two atomic stores.
func (g *group) updateQueueGauges() {
	g.met.queueDepth.Set(int64(len(g.pending)))
	g.met.pendingImages.Set(int64(g.pendingImages))
}

func shapeOf(x *tensor.Tensor) []int {
	if x == nil {
		return nil
	}
	return x.Shape()
}

// serveLoop is one replica worker: take a dispatchable batch, run it under
// supervision, repeat until the group is closed and drained or the replica
// faults and is quarantined.
func (g *group) serveLoop(r *replica) {
	for {
		reqs := g.take(r)
		if reqs == nil {
			return
		}
		if !g.runSupervised(r, reqs) {
			return
		}
	}
}

// dequeueLocked removes req from the queue for dispatch: flips its queued
// flag (so a racing cancellation becomes a no-op) and deregisters the
// context watcher. Caller holds g.mu and has already located req.
func (g *group) dequeueLocked(req *request) {
	req.queued = false
	if req.stopCancel != nil {
		req.stopCancel()
		req.stopCancel = nil
	}
}

// take blocks until it can dispatch work, honoring the batching policy.
// It returns nil when the worker should exit: the group is closed and the
// queue drained.
func (g *group) take(r *replica) []*request {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if len(g.pending) == 0 {
			if g.closed {
				g.dropReplicaLocked(r)
				return nil
			}
			g.cond.Wait()
			continue
		}
		var batch []*request
		if g.stateful {
			// Dispatch the oldest request its stream's cursor lets go: one
			// in flight per stream — per-stream order is the adaptation
			// protocol's order — and a sequenced request only at its
			// protocol position.
			for i, req := range g.pending {
				if ok, ckpt := req.st.cur.Dispatch(req.seq); ok {
					req.checkpoint = ckpt
					batch = []*request{req}
					g.pending = append(g.pending[:i], g.pending[i+1:]...)
					break
				}
			}
			if batch == nil {
				// Every pending stream is busy on another replica.
				g.cond.Wait()
				continue
			}
		} else {
			// Stateless: coalesce. Fire when the batch is full, when lingering
			// is disabled or expired, or when draining at close.
			if g.pendingImages < g.cfg.MaxBatch && g.cfg.MaxLinger > 0 && !g.closed {
				wait := time.Until(g.pending[0].enq.Add(g.cfg.MaxLinger))
				if wait > 0 {
					if !g.timerArmed {
						g.timerArmed = true
						time.AfterFunc(wait, func() {
							g.mu.Lock()
							g.timerArmed = false
							g.cond.Broadcast()
							g.mu.Unlock()
						})
					}
					g.cond.Wait()
					continue
				}
			}
			taken := 0
			for len(g.pending) > 0 {
				req := g.pending[0]
				if len(batch) > 0 && taken+req.n > g.cfg.MaxBatch {
					break
				}
				batch = append(batch, req)
				taken += req.n
				g.pending = g.pending[1:]
				if taken >= g.cfg.MaxBatch {
					break
				}
			}
		}
		for _, req := range batch {
			g.dequeueLocked(req)
			g.pendingImages -= req.n
		}
		g.active++
		g.updateQueueGauges()
		g.cond.Broadcast() // queue space freed
		return batch
	}
}

// commit finishes one successful supervised dispatch: persist the stream's
// new state (and checkpoint it on cadence), update metrics, release the
// stream's in-flight slot, and deliver the responses.
func (g *group) commit(r *replica, reqs []*request, res computeResult, start time.Time) {
	logits, n := res.logits, res.images
	service := time.Since(start)

	// Checkpoint before releasing the in-flight gate: the gate is what
	// orders checkpoint writes of one stream, and the stream's next request
	// must not dispatch until its state (below) is committed anyway.
	var ckptErr error
	if reqs[0].checkpoint {
		ckptErr = g.writeCheckpoint(reqs[0].st.name, res.state, reqs[0].seq)
	}

	// Trace the dispatch: one span per Process call on the replica's
	// timeline, plus one queue-wait span per request on its stream's
	// timeline — together they render the enqueue→dispatch→process life of
	// every request in the trace viewer.
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Complete("serve", "process:"+g.key.String(), r.id, start, service,
			telemetry.Arg{Key: "requests", Value: len(reqs)},
			telemetry.Arg{Key: "images", Value: n})
		for _, req := range reqs {
			tr.Complete("serve", "queue", 1000+req.st.id, req.enq, start.Sub(req.enq),
				telemetry.Arg{Key: "stream", Value: req.st.id},
				telemetry.Arg{Key: "images", Value: req.n})
		}
	}

	// Split the output rows back to per-request responses in queue order.
	// The views share the Process call's freshly allocated logits tensor
	// over disjoint row ranges, so no copying is needed.
	classes := logits.Dim(1)
	out := make([]Response, len(reqs))
	row := 0
	for i, req := range reqs {
		rows := logits
		if len(reqs) > 1 {
			rows = tensor.FromSlice(logits.Data[row*classes:(row+req.n)*classes], req.n, classes)
		}
		row += req.n
		out[i] = Response{Logits: rows, QueueWait: start.Sub(req.enq), Service: service, BatchImages: n}
	}

	// Update metrics (and release the stream's in-flight slot) before
	// delivering responses, so a client that takes a snapshot right after
	// receiving its response always sees its own request counted.
	done := time.Now()
	g.mu.Lock()
	g.active--
	g.met.batches.Inc()
	g.met.requests.Add(int64(len(reqs)))
	g.met.images.Add(int64(n))
	if len(reqs) > 1 {
		g.met.coalesced.Add(int64(len(reqs)))
	}
	if n > g.maxCoalesced {
		g.maxCoalesced = n
	}
	if g.serviceEMA == 0 {
		g.serviceEMA = service
	} else {
		g.serviceEMA += (service - g.serviceEMA) / 8
	}
	g.met.numericResets.Add(int64(res.resets))
	r.activation = res.activation
	g.updateActivationLocked()
	if ckptErr != nil {
		g.met.ckptFailures.Inc()
	} else if reqs[0].checkpoint {
		g.met.ckptWrites.Inc()
	}
	if !g.lastFaultAt.IsZero() {
		// First successful serve since the last replica fault: the group's
		// fault→first-served recovery latency.
		g.recoveryHist.Observe(done.Sub(g.lastFaultAt))
		g.lastFaultAt = time.Time{}
	}
	g.batchHist.Observe(service)
	if g.stateful {
		// This is the only place a stream's state advances, so a faulted
		// dispatch (which never gets here) leaves the stream exactly one
		// retry away.
		reqs[0].st.state = res.state
	}
	for i, req := range reqs {
		e2e := done.Sub(req.enq)
		g.e2eHist.Observe(e2e)
		req.st.requests++
		req.st.images += req.n
		req.st.e2e.Observe(e2e)
		// The cursor releases the in-flight slot and advances the watermark
		// and replay slot with the state above — the stream's next request
		// may dispatch (even to another replica) before the response lands.
		req.st.cur.Commit(req.seq, out[i])
	}
	// The stream's next request became dispatchable; a drain-then-release
	// Close may also be waiting on the cursor, and a duplicate sequenced
	// submit on the applied position.
	g.cond.Broadcast()
	g.mu.Unlock()

	// The channels are buffered, so delivery never blocks the worker.
	for i, req := range reqs {
		req.resp <- out[i]
	}
}
