package nn

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edgetta/internal/parallel"
	"edgetta/internal/telemetry"
)

// This file implements the runtime profiler the study's methodology is
// built on (the paper uses PyTorch's Autograd profiler the same way):
// when enabled, every layer records the wall time of its Forward and
// Backward calls, aggregated by layer kind. Disabled, the instrumentation
// is a nil check per layer call.
//
// The same hooks feed the telemetry span tracer: while a tracer is active
// (telemetry.StartTracing / EDGETTA_TRACE=1), every layer Forward/Backward
// becomes a Chrome trace-event span named "<kind>.fw"/"<kind>.bw" with the
// layer name attached, and the time a conv spends staging its input (the
// padded, stride-split copy) appears as contained "pack" spans carrying
// the conv's name and the pool width. Either
// consumer — aggregate profiler or tracer — turns the hooks on; both read
// the clock only in this file (exempt from ttalint's determinism scope by
// the *profiler* filename carve-out) and in internal/telemetry.
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

// Total returns the summed forward+backward seconds. KindPack is
// excluded: it is a contained sub-measurement of conv time (see
// KindPack), so adding it would double-count. The sum runs in ascending
// kind order: float32/64 addition is not associative, so summing in map
// iteration order would make the total vary run to run over identical
// measurements.
func (p PhaseTotals) Total() float64 {
	t := 0.0
	for _, k := range sortedKinds(p.FwSeconds) {
		if k != KindPack {
			t += p.FwSeconds[k]
		}
	}
	for _, k := range sortedKinds(p.BwSeconds) {
		if k != KindPack {
			t += p.BwSeconds[k]
		}
	}
	return t
}

// sortedKinds returns m's keys in ascending order, the determinism-safe
// way to iterate a kind-keyed map.
func sortedKinds(m map[Kind]float64) []Kind {
	kinds := make([]Kind, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

type phaseCollector struct {
	mu     sync.Mutex
	totals PhaseTotals
}

var (
	profMu  sync.Mutex
	profCur *phaseCollector
)

// StartProfiling begins collecting per-layer timings process-wide. It
// returns false if a collection is already active.
func StartProfiling() bool {
	profMu.Lock()
	defer profMu.Unlock()
	if profCur != nil {
		return false
	}
	profCur = &phaseCollector{totals: PhaseTotals{
		FwSeconds: map[Kind]float64{}, BwSeconds: map[Kind]float64{},
		FwCalls: map[Kind]int{}, BwCalls: map[Kind]int{},
	}}
	return true
}

// StopProfiling ends collection and returns the totals. Calling it with no
// active collection returns empty totals.
func StopProfiling() PhaseTotals {
	profMu.Lock()
	defer profMu.Unlock()
	if profCur == nil {
		return PhaseTotals{}
	}
	t := profCur.totals
	profCur = nil
	return t
}

// profStart returns the start time when any timing consumer (aggregate
// profiler or span tracer) is active, else the zero time. Layers call it
// at the top of Forward/Backward.
func profStart() time.Time {
	if !profActive() {
		return time.Time{}
	}
	return time.Now()
}

// profActive reports whether any timing consumer is listening. Layers use
// it to skip fine-grained sub-measurements (staging vs compute attribution)
// when nobody is.
func profActive() bool {
	if telemetry.ActiveTracer() != nil {
		return true
	}
	profMu.Lock()
	active := profCur != nil
	profMu.Unlock()
	return active
}

// spanName renders a kind and direction as a trace span name.
func spanName(kind Kind, backward bool) string {
	if backward {
		return kind.String() + ".bw"
	}
	return kind.String() + ".fw"
}

// profAdd credits dt to a kind directly, without a surrounding interval.
// The conv layer named name uses it to attribute its staging copies
// (KindPack) separately from kernel compute; dt is summed across pool
// workers, so the split is exact at one worker and CPU-time-like above.
// With a tracer active it also emits a span ending now that carries the
// layer's name and the pool width the sum ran across.
func profAdd(kind Kind, name string, backward bool, dt time.Duration) {
	if dt == 0 {
		return
	}
	if tr := telemetry.ActiveTracer(); tr != nil {
		tr.Complete("nn", spanName(kind, backward), 0, time.Now().Add(-dt), dt,
			telemetry.Arg{Key: "layer", Value: name}, telemetry.Arg{Key: "workers", Value: parallel.Workers()})
	}
	profMu.Lock()
	c := profCur
	profMu.Unlock()
	if c == nil {
		return
	}
	sec := dt.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	if backward {
		c.totals.BwSeconds[kind] += sec
		c.totals.BwCalls[kind]++
	} else {
		c.totals.FwSeconds[kind] += sec
		c.totals.FwCalls[kind]++
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

// profEnd records a completed phase against the aggregate totals and, when
// a tracer is active, as a trace span carrying the layer's name.
func profEnd(kind Kind, name string, backward bool, t0 time.Time) {
	profEndFused(kind, name, "", backward, t0)
}

// profEndFused is profEnd for a pass that also did the work of the layer
// named fused (a batch-norm pass and the rectifier folded into it): one
// interval, credited to kind, whose span names both layers.
func profEndFused(kind Kind, name, fused string, backward bool, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	dt := time.Since(t0)
	if tr := telemetry.ActiveTracer(); tr != nil {
		args := []telemetry.Arg{{Key: "layer", Value: name}}
		if fused != "" {
			args = append(args, telemetry.Arg{Key: "fused", Value: fused})
		}
		tr.Complete("nn", spanName(kind, backward), 0, t0, dt, args...)
	}
	profMu.Lock()
	c := profCur
	profMu.Unlock()
	if c == nil {
		return
	}
	sec := dt.Seconds()
	c.mu.Lock()
	defer c.mu.Unlock()
	if backward {
		c.totals.BwSeconds[kind] += sec
		c.totals.BwCalls[kind]++
	} else {
		c.totals.FwSeconds[kind] += sec
		c.totals.FwCalls[kind]++
	}
}
