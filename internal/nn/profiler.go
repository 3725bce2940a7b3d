package nn

import (
	"cmp"
	"sync/atomic"
	"time"

	"edgetta/internal/parallel"
	"edgetta/internal/telemetry"
)

// This file implements the runtime profiler the study's methodology is
// built on (the paper uses PyTorch's Autograd profiler the same way). Its
// hooks have one consumer, the telemetry span tracer: while a tracer is
// active (telemetry.StartTracing / EDGETTA_TRACE=1), every layer
// Forward/Backward becomes a span named "<kind>.fw"/"<kind>.bw" carrying
// the layer's name, and a conv's staging copies (the padded, stride-split
// input) become contained "pack" spans carrying the conv's name and the
// pool width. With no tracer the hooks cost one atomic load per layer call.
// The per-kind totals are the tracer's: it keeps a running total per span
// name that its event bound never drops, and PhaseTotals is the difference
// of those totals between StartProfiling and StopProfiling. The hooks read
// the clock only in this file (exempt from ttalint's determinism scope by
// the *profiler* filename carve-out).
//
// Attribution with the pooled scheduler: layers execute their parallel
// loops fork-join through internal/parallel, and the join happens before
// profEnd, so the wall time recorded for a layer spans all pooled-worker
// activity that layer caused and nothing else. Nested loops (a matmul
// inside a per-image conv loop) run inline on the pool's workers and are
// likewise contained in the issuing layer's interval.

// PhaseTotals aggregates profiled wall time by layer kind and direction.
type PhaseTotals struct {
	FwSeconds map[Kind]float64
	BwSeconds map[Kind]float64
	FwCalls   map[Kind]int
	BwCalls   map[Kind]int
}

// Total returns the summed forward+backward seconds. KindPack, the last
// kind, is excluded: it is a contained sub-measurement of conv time, so
// adding it would double-count. The sum runs in ascending kind order, so
// identical measurements give an identical total.
func (p PhaseTotals) Total() float64 {
	t := 0.0
	for k := range KindPack {
		t += p.FwSeconds[k] + p.BwSeconds[k]
	}
	return t
}

// profiling is a collection under way: the tracer whose totals it reads,
// that tracer again if StartProfiling installed it, and the totals at the
// start, by kind and direction (forward, backward).
type profiling struct {
	tr, owned *telemetry.Tracer
	mark      [KindPack + 1][2]telemetry.SpanTotal
}

var profCur atomic.Pointer[profiling]

// kindTotals reads tr's running totals of every kind's fw and bw spans.
func kindTotals(tr *telemetry.Tracer) (t [KindPack + 1][2]telemetry.SpanTotal) {
	for k := range t {
		for dir := range t[k] {
			t[k][dir] = tr.Total("nn", spanName(Kind(k), dir == 1))
		}
	}
	return t
}

// StartProfiling begins collecting per-layer timings process-wide, over the
// active tracer or, if none is active, over one it installs until
// StopProfiling. It returns false if a collection is already active.
func StartProfiling() bool {
	p := new(profiling)
	for p.tr == nil { // nil only if a tracer stopped between the two calls
		p.owned = telemetry.StartTracing()
		p.tr = cmp.Or(p.owned, telemetry.ActiveTracer())
	}
	p.mark = kindTotals(p.tr)
	if !profCur.CompareAndSwap(nil, p) {
		p.stop()
		return false
	}
	return true
}

// stop removes the tracer StartProfiling installed, if it is still active.
func (p *profiling) stop() {
	if p.owned != nil && telemetry.ActiveTracer() == p.owned {
		telemetry.StopTracing()
	}
}

// StopProfiling ends collection and returns the totals of the spans
// recorded since StartProfiling, with entries only for the kinds that ran.
// Calling it with no active collection returns empty totals.
func StopProfiling() PhaseTotals {
	p := profCur.Swap(nil)
	if p == nil {
		return PhaseTotals{}
	}
	p.stop()
	t := PhaseTotals{
		FwSeconds: map[Kind]float64{}, BwSeconds: map[Kind]float64{},
		FwCalls: map[Kind]int{}, BwCalls: map[Kind]int{},
	}
	for k, now := range kindTotals(p.tr) {
		kind, mark := Kind(k), p.mark[k]
		if n := now[0].Count - mark[0].Count; n > 0 {
			t.FwCalls[kind], t.FwSeconds[kind] = n, (now[0].Dur - mark[0].Dur).Seconds()
		}
		if n := now[1].Count - mark[1].Count; n > 0 {
			t.BwCalls[kind], t.BwSeconds[kind] = n, (now[1].Dur - mark[1].Dur).Seconds()
		}
	}
	return t
}

// profStart returns the start time when a tracer is active, else the zero
// time. Layers call it at the top of Forward/Backward.
func profStart() time.Time {
	if !profActive() {
		return time.Time{}
	}
	return time.Now()
}

// profActive reports whether a tracer is listening. Layers use it to skip
// fine-grained sub-measurements (staging vs compute attribution) when
// nobody is.
func profActive() bool { return telemetry.ActiveTracer() != nil }

// spanName renders a kind and direction as a trace span name.
func spanName(kind Kind, backward bool) string {
	if backward {
		return kind.String() + ".bw"
	}
	return kind.String() + ".fw"
}

// profAdd records dt against a kind as a span ending now, without a
// surrounding interval. The conv layer named name uses it to attribute its
// staging copies (KindPack) separately from kernel compute; dt is summed
// across pool workers, so the split is exact at one worker and
// CPU-time-like above. The span carries the layer's name and the pool
// width the sum ran across.
func profAdd(kind Kind, name string, backward bool, dt time.Duration) {
	if tr := telemetry.ActiveTracer(); tr != nil && dt != 0 {
		tr.Complete("nn", spanName(kind, backward), 0, time.Now().Add(-dt), dt,
			telemetry.Arg{Key: "layer", Value: name}, telemetry.Arg{Key: "workers", Value: parallel.Workers()})
	}
}

// timed runs f and, when prof, adds its duration to sum: a sub-measurement
// summed across pool workers, credited with profAdd after the loop joins.
func timed(prof bool, sum *atomic.Int64, f func()) {
	if prof {
		t0 := time.Now()
		f()
		sum.Add(int64(time.Since(t0)))
		return
	}
	f()
}

// profEnd records a completed phase as a trace span carrying the layer's
// name.
func profEnd(kind Kind, name string, backward bool, t0 time.Time) {
	if tr := telemetry.ActiveTracer(); tr != nil && !t0.IsZero() {
		tr.Complete("nn", spanName(kind, backward), 0, t0, time.Since(t0), telemetry.Arg{Key: "layer", Value: name})
	}
}
