// Package chaos is the serving tier's seeded fault harness: a
// deterministic serve.FaultInjector plus an HTTP transport wrapper that
// drops connections, both driven by one RNG seed. The same seed always
// produces the same fault schedule — replica panics at the same dispatch
// indices, the same checkpoint write failing, the same wire request
// dropped — so a chaos run that finds a bug is replayable from its seed
// (TestChaosExactlyOnce in internal/serve/httpapi runs seeds 1–4).
//
// Faults are scheduled by global dispatch index (the Nth Process call
// across the whole server, 1-based), not wall clock: index schedules stay
// meaningful under the race detector, on loaded CI machines, and across
// hardware. What is NOT deterministic is which replica/stream the Nth
// dispatch happens to be serving — that depends on scheduling — which is
// exactly the point: the fault lands on whatever the server is doing,
// and the recovery contracts (no lost batch, no double-adapted batch,
// checkpoint-exact resume) must hold regardless.
package chaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgetta/internal/serve"
)

// Plan is a fault schedule: which dispatch/checkpoint/wire events fault.
// All indices are 1-based event counts. A zero Plan injects nothing.
type Plan struct {
	// PanicAt lists Process-call indices whose compute goroutine panics
	// (the replica is quarantined and replaced).
	PanicAt []uint64
	// DelayAt lists Process-call indices delayed by Delay before
	// computing — slow replicas; wedged ones when Delay exceeds the
	// server's watchdog.
	DelayAt []uint64
	// Delay is the injected slow-replica delay (default 1ms when DelayAt
	// is non-empty and Delay is zero).
	Delay time.Duration
	// PoisonAt lists Process-call indices whose captured post-batch state
	// is corrupted with a NaN (stateful groups; exercises the numeric
	// guard).
	PoisonAt []uint64
	// CheckpointFailAt lists checkpoint-write indices that fail.
	CheckpointFailAt []uint64
	// DropRequestAt lists HTTP round-trip indices dropped before the
	// request is sent (connection refused / reset on connect).
	DropRequestAt []uint64
	// DropResponseAt lists HTTP round-trip indices dropped after the
	// server has processed the request but before the client reads the
	// response — the ugly half-done failure that makes idempotent retry
	// protocols earn their keep.
	DropResponseAt []uint64
}

// Seeded builds a deterministic Plan from a seed: n replica panics, one
// slow-replica delay, one state poisoning, and one checkpoint-write
// failure, spread over the first horizon Process calls. It is the stock
// schedule behind TestChaosExactlyOnce; tests needing a precise scenario
// build a Plan literal instead.
func Seeded(seed int64, n, horizon int) Plan {
	if horizon < 1 {
		horizon = 1
	}
	rng := rand.New(rand.NewSource(seed))
	// Distinct indices in [1, horizon], spread so faults do not all land
	// in one burst: index i is drawn from its own slice of the horizon.
	pick := func(k int) []uint64 {
		if k <= 0 {
			return nil
		}
		seen := make(map[uint64]bool)
		out := make([]uint64, 0, k)
		for i := 0; i < k; i++ {
			lo := 1 + uint64(i)*uint64(horizon)/uint64(k)
			hi := 1 + uint64(i+1)*uint64(horizon)/uint64(k)
			if hi <= lo {
				hi = lo + 1
			}
			v := lo + uint64(rng.Int63n(int64(hi-lo)))
			for seen[v] {
				v++
			}
			seen[v] = true
			out = append(out, v)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	p := Plan{
		PanicAt:          pick(n),
		DelayAt:          pick(1),
		Delay:            time.Duration(1+rng.Int63n(3)) * time.Millisecond,
		PoisonAt:         pick(1),
		CheckpointFailAt: pick(1),
	}
	return p
}

// Injector is a deterministic serve.FaultInjector executing a Plan. It is
// safe for concurrent use; create with NewInjector.
type Injector struct {
	plan     Plan
	process  atomic.Uint64
	ckpt     atomic.Uint64
	panicAt  map[uint64]bool
	delayAt  map[uint64]bool
	poisonAt map[uint64]bool
	ckptAt   map[uint64]bool

	mu  sync.Mutex
	log []string
}

// NewInjector compiles a Plan into a concurrency-safe injector.
func NewInjector(p Plan) *Injector {
	if p.Delay == 0 && len(p.DelayAt) > 0 {
		p.Delay = time.Millisecond
	}
	return &Injector{
		plan:     p,
		panicAt:  indexSet(p.PanicAt),
		delayAt:  indexSet(p.DelayAt),
		poisonAt: indexSet(p.PoisonAt),
		ckptAt:   indexSet(p.CheckpointFailAt),
	}
}

func indexSet(idx []uint64) map[uint64]bool {
	m := make(map[uint64]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// ProcessFault implements serve.FaultInjector.
func (in *Injector) ProcessFault(group string, replica int) serve.Fault {
	n := in.process.Add(1)
	switch {
	case in.panicAt[n]:
		in.record("panic", "dispatch %d: %s replica %d", n, group, replica)
		return serve.Fault{Kind: serve.FaultPanic}
	case in.delayAt[n]:
		in.record("delay", "dispatch %d: %s replica %d (+%v)", n, group, replica, in.plan.Delay)
		return serve.Fault{Kind: serve.FaultDelay, Delay: in.plan.Delay}
	case in.poisonAt[n]:
		in.record("poison", "dispatch %d: %s replica %d", n, group, replica)
		return serve.Fault{Kind: serve.FaultPoison}
	}
	return serve.Fault{}
}

// CheckpointFault implements serve.FaultInjector.
func (in *Injector) CheckpointFault(session string, seq uint64) error {
	n := in.ckpt.Add(1)
	if in.ckptAt[n] {
		in.record("ckptfail", "checkpoint %d: session %q seq %d", n, session, seq)
		return fmt.Errorf("chaos: injected checkpoint write failure (write %d)", n)
	}
	return nil
}

func (in *Injector) record(kind, format string, args ...any) {
	in.mu.Lock()
	in.log = append(in.log, kind+": "+fmt.Sprintf(format, args...))
	in.mu.Unlock()
}

// Injected returns the faults fired so far, in firing order — the chaos
// run's audit trail.
func (in *Injector) Injected() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.log...)
}

// Dispatches returns how many Process calls the injector has observed.
func (in *Injector) Dispatches() uint64 { return in.process.Load() }

// droppedError is the transport-level error DropRoundTripper returns. It
// reports itself temporary/timeout-ish so net-aware retry loops treat it
// like a real connection failure.
type droppedError struct{ stage string }

func (e *droppedError) Error() string   { return "chaos: connection dropped " + e.stage }
func (e *droppedError) Timeout() bool   { return false }
func (e *droppedError) Temporary() bool { return true }

// DropRoundTripper wraps an http.RoundTripper and drops scheduled
// round trips. A request-stage drop fails before the request reaches the
// server; a response-stage drop lets the server process the request, then
// discards the response — from the client it is the same opaque
// connection error, but the server-side state has advanced, so only a
// sequence-aware retry is safe. Round trips are counted 1-based across
// the transport's lifetime.
type DropRoundTripper struct {
	// Base is the wrapped transport; nil means http.DefaultTransport.
	Base http.RoundTripper

	plan   Plan
	n      atomic.Uint64
	reqAt  map[uint64]bool
	respAt map[uint64]bool

	mu  sync.Mutex
	log []string
}

// NewDropRoundTripper builds the dropping transport for a Plan.
func NewDropRoundTripper(base http.RoundTripper, p Plan) *DropRoundTripper {
	return &DropRoundTripper{
		Base:   base,
		plan:   p,
		reqAt:  indexSet(p.DropRequestAt),
		respAt: indexSet(p.DropResponseAt),
	}
}

// RoundTrip implements http.RoundTripper.
func (d *DropRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	n := d.n.Add(1)
	if d.reqAt[n] {
		d.record("drop-request", n, req)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &droppedError{stage: "before send"}
	}
	base := d.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err == nil && d.respAt[n] {
		d.record("drop-response", n, req)
		resp.Body.Close()
		return nil, &droppedError{stage: "after server processed request"}
	}
	return resp, err
}

func (d *DropRoundTripper) record(kind string, n uint64, req *http.Request) {
	d.mu.Lock()
	d.log = append(d.log, fmt.Sprintf("%s: round trip %d: %s %s", kind, n, req.Method, req.URL.Path))
	d.mu.Unlock()
}

// Injected returns the drops fired so far, in firing order.
func (d *DropRoundTripper) Injected() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.log...)
}
