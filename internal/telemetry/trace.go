package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The span tracer records timed events into an in-memory buffer and writes
// them as Chrome trace-event JSON (the "trace event format" consumed by
// chrome://tracing and Perfetto). One tracer is active per process at a
// time, installed by StartTracing and read through ActiveTracer. The nn
// layer hooks are its main event source, and nn's per-kind phase totals are
// a view of its running span totals (Total).
//
// The disabled path is a single atomic pointer load: instrumentation
// sites write
//
//	if tr := telemetry.ActiveTracer(); tr != nil { tr.Instant(...) }
//
// and pay nothing else when no trace is being collected. Packages under
// the kernel determinism contract (internal/data, internal/stream's
// simulated timeline) never read the wall clock themselves: Instant stamps
// events inside this package, and simulated-time spans are emitted through
// CompleteAt with caller-supplied timestamps.

// DefaultTraceEvents bounds an in-memory trace. Past the bound new events
// are counted as dropped rather than stored, so leaving a trace active
// over a long run (EDGETTA_TRACE=1 across a whole test suite) costs
// bounded memory and near-zero steady-state time.
const DefaultTraceEvents = 1 << 16

// Arg is one key/value annotation on a trace event. Args are ordered
// slices, not maps, so serialized traces are deterministic given the same
// event sequence.
type Arg struct {
	Key   string
	Value any
}

// event is one trace record; ph follows the trace-event format ('X'
// complete, 'i' instant, 'M' metadata).
type event struct {
	name, cat string
	ph        byte
	tsNs      int64 // nanoseconds since the tracer's epoch
	durNs     int64 // 'X' only
	tid       int64
	args      []Arg
}

// SpanTotal is the running count and summed duration of the complete
// spans recorded under one (cat, name), stored or dropped.
type SpanTotal struct {
	Count int
	Dur   time.Duration
}

// Tracer collects trace events. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	max     int
	events  []event
	dropped int
	meta    []Arg
	totals  map[[2]string]SpanTotal // keyed by {cat, name}
}

// active is the process-wide tracer instrumentation sites consult.
var active atomic.Pointer[Tracer]

func init() {
	// EDGETTA_TRACE=1 installs a bounded tracer at process start, so whole
	// test binaries (CI's tracing-parity arm) and ad-hoc runs exercise
	// every instrumentation site without code changes.
	if os.Getenv("EDGETTA_TRACE") == "1" {
		StartTracing()
	}
}

// StartTracing installs a new process-wide tracer bounded at
// DefaultTraceEvents and returns it, or returns nil if a trace is already
// being collected.
func StartTracing() *Tracer { return StartTracingLimit(DefaultTraceEvents) }

// StartTracingLimit is StartTracing with an explicit event bound.
func StartTracingLimit(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultTraceEvents
	}
	t := &Tracer{epoch: time.Now(), max: maxEvents, totals: map[[2]string]SpanTotal{}}
	if !active.CompareAndSwap(nil, t) {
		return nil
	}
	return t
}

// StopTracing uninstalls and returns the active tracer (nil if none). The
// returned tracer is complete and ready for WriteJSON.
func StopTracing() *Tracer { return active.Swap(nil) }

// ActiveTracer returns the installed tracer, or nil when tracing is
// disabled. This is the per-site fast path: one atomic load.
func ActiveTracer() *Tracer { return active.Load() }

// SetMeta attaches a key/value annotation to the trace as a whole (pool
// width, model tag, host) — rendered into the trace file's metadata
// object.
func (t *Tracer) SetMeta(key string, value any) {
	t.mu.Lock()
	t.meta = append(t.meta, Arg{key, value})
	t.mu.Unlock()
}

// add appends one event, honoring the bound; a complete span counts into
// its running total either way.
func (t *Tracer) add(e event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.ph == 'X' {
		k := [2]string{e.cat, e.name}
		t.totals[k] = SpanTotal{t.totals[k].Count + 1, t.totals[k].Dur + time.Duration(e.durNs)}
	}
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Complete records a finished span: start is a wall-clock time taken while
// this tracer was active, dur its measured duration.
func (t *Tracer) Complete(cat, name string, tid int, start time.Time, dur time.Duration, args ...Arg) {
	t.add(event{name: name, cat: cat, ph: 'X',
		tsNs: start.Sub(t.epoch).Nanoseconds(), durNs: dur.Nanoseconds(),
		tid: int64(tid), args: args})
}

// CompleteAt records a span on a caller-supplied timeline (microseconds
// since the trace origin) — how the deterministic discrete-event simulator
// exports its simulated schedule without ever reading the wall clock.
func (t *Tracer) CompleteAt(cat, name string, tid int, tsMicros, durMicros int64, args ...Arg) {
	t.add(event{name: name, cat: cat, ph: 'X',
		tsNs: tsMicros * 1e3, durNs: durMicros * 1e3,
		tid: int64(tid), args: args})
}

// Instant records a point-in-time marker, stamped with the tracer's own
// clock — callers under the kernel determinism contract use this so the
// clock read stays inside the telemetry carve-out.
func (t *Tracer) Instant(cat, name string, tid int, args ...Arg) {
	t.add(event{name: name, cat: cat, ph: 'i',
		tsNs: time.Since(t.epoch).Nanoseconds(), tid: int64(tid), args: args})
}

// InstantAt is Instant on a caller-supplied timeline (microseconds since
// the trace origin).
func (t *Tracer) InstantAt(cat, name string, tid int, tsMicros int64, args ...Arg) {
	t.add(event{name: name, cat: cat, ph: 'i',
		tsNs: tsMicros * 1e3, tid: int64(tid), args: args})
}

// Len returns the number of stored events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Total returns the running count and duration of the complete spans
// recorded under cat and name, those the bound dropped included.
func (t *Tracer) Total(cat, name string) SpanTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.totals[[2]string{cat, name}]
}

// Dropped returns how many events the bound discarded.
func (t *Tracer) Dropped() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// writeArgs renders an ordered Arg list as a JSON object.
func writeArgs(b *strings.Builder, args []Arg) {
	b.WriteByte('{')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, _ := json.Marshal(a.Key)
		b.Write(kb)
		b.WriteByte(':')
		vb, err := json.Marshal(a.Value)
		if err != nil {
			vb, _ = json.Marshal(fmt.Sprint(a.Value))
		}
		b.Write(vb)
	}
	b.WriteByte('}')
}

// WriteJSON writes the trace in Chrome trace-event JSON. Timestamps are
// microseconds (fractional, nanosecond-resolution) since the trace start.
// Open the file at chrome://tracing or https://ui.perfetto.dev.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	events := t.events
	meta := t.meta
	dropped := t.dropped
	t.mu.Unlock()

	var b strings.Builder
	b.WriteString("{\"traceEvents\":[\n")
	b.WriteString(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"edgetta"}}`)
	for i := range events {
		e := &events[i]
		b.WriteString(",\n")
		nb, _ := json.Marshal(e.name)
		cb, _ := json.Marshal(e.cat)
		fmt.Fprintf(&b, `{"ph":%q,"pid":1,"tid":%d,"ts":%.3f,`, string(e.ph), e.tid, float64(e.tsNs)/1e3)
		if e.ph == 'X' {
			fmt.Fprintf(&b, `"dur":%.3f,`, float64(e.durNs)/1e3)
		}
		if e.ph == 'i' {
			b.WriteString(`"s":"g",`)
		}
		fmt.Fprintf(&b, `"name":%s,"cat":%s,"args":`, nb, cb)
		writeArgs(&b, e.args)
		b.WriteByte('}')
	}
	b.WriteString("\n],\"displayTimeUnit\":\"ms\",\"metadata\":")
	meta = append(append([]Arg(nil), meta...), Arg{"dropped_events", dropped})
	writeArgs(&b, meta)
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
