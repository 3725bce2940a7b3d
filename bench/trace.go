package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"edgetta/internal/nn"
	"edgetta/internal/serve"
	"edgetta/internal/telemetry"
)

// span is one call the benchmark made into a layer: name, start, end, the
// span that caused it, and the op it belongs to (-1 outside any op).
type span struct {
	id, parent, op, tid int
	name                string
	start               time.Time
	dur                 time.Duration
}

// spans is the traced run's in-memory span list, written out at exit. A
// nil *spans records nothing, which is how the untraced run calls the same
// set-up code.
type spans struct {
	origin time.Time
	list   []span
}

func (s *spans) put(name string, start time.Time, dur time.Duration, parent, op, tid int) int {
	if s == nil {
		return -1
	}
	id := len(s.list)
	s.list = append(s.list, span{id, parent, op, tid, name, start, dur})
	return id
}

// add closes a top-level set-up span that began at start and returns its
// duration.
func (s *spans) add(name string, start time.Time) time.Duration {
	dur := time.Since(start)
	s.put(name, start, dur, -1, -1, 0)
	return dur
}

// opSpanName is the public function an op of each kind calls.
var opSpanName = map[kind]string{
	adaptKind:  "core.Adapter.Process",
	httpKind:   "httpapi.ClientStream.Process",
	inprocKind: "serve.Stream.SubmitCtx",
}

// phase is a group of consecutive passes.
type phase struct {
	walls []float64
	lat   []time.Duration
}

func (p phase) latSum() time.Duration {
	var t time.Duration
	for _, d := range p.lat {
		t += d
	}
	return t
}

// runPasses runs n counted passes, filing a span per pass and per op.
// Bench spans sit on tid 2000+stream, clear of the serve tracer's replica
// and stream timelines.
func runPasses(inst *instance, rec *opRecord, t *tally, n int, sp *spans, name string) phase {
	var ph phase
	ops := len(inst.in[0])
	for p := 0; p < n; p++ {
		t0 := time.Now()
		inst.sys.pass(inst.in, rec)
		wall := time.Since(t0)
		ph.walls = append(ph.walls, wall.Seconds())
		ph.lat = append(ph.lat, rec.lat...)
		t.count(rec)
		root := sp.put(name, t0, wall, -1, -1, 0)
		for i := range rec.lat {
			sp.put(opSpanName[inst.w.kind], rec.start[i], rec.lat[i], root, t.attempted-len(rec.lat)+i, 2000+i/ops)
		}
	}
	return ph
}

// traceEvent is the subset of a Chrome trace event this file reads back
// from the telemetry tracer and writes for its own spans.
type traceEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata"`
}

// tracerEvents reads the repo tracer's events (nn layer spans, serve
// queue/process spans) back through its one export, WriteJSON.
func tracerEvents(tr *telemetry.Tracer) ([]traceEvent, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		return nil, fmt.Errorf("re-read tracer output: %w", err)
	}
	return tf.TraceEvents, nil
}

// mergeTrace puts the benchmark's spans and the tracer's events on one
// timeline whose origin is the start of the run. tracerStart is when the
// tracer was installed: its events carry timestamps relative to that.
func mergeTrace(sp *spans, events []traceEvent, tracerStart time.Time, meta map[string]any) traceFile {
	tf := traceFile{DisplayTimeUnit: "ms", Metadata: meta}
	shift := float64(tracerStart.Sub(sp.origin)) / float64(time.Microsecond)
	for _, e := range events {
		if e.Ph != "M" {
			e.Ts += shift
		}
		tf.TraceEvents = append(tf.TraceEvents, e)
	}
	for _, s := range sp.list {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Ph: "X", Pid: 1, Tid: s.tid, Name: s.name, Cat: "bench",
			Ts:   float64(s.start.Sub(sp.origin)) / float64(time.Microsecond),
			Dur:  float64(s.dur) / float64(time.Microsecond),
			Args: map[string]any{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	return tf
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// serveSpans reads the serve layer's own spans back out of the trace:
// queue wait per request, and Process service time weighted by the
// requests each call served.
func serveSpans(events []traceEvent) (queueMS []float64, serviceMeanMS float64) {
	var svc, reqs float64
	for _, e := range events {
		if e.Cat != "serve" {
			continue
		}
		switch {
		case e.Name == "queue":
			queueMS = append(queueMS, e.Dur/1e3)
		case strings.HasPrefix(e.Name, "process:"):
			n, _ := e.Args["requests"].(float64)
			svc += e.Dur / 1e3 * n
			reqs += n
		}
	}
	if reqs > 0 {
		serviceMeanMS = svc / reqs
	}
	return queueMS, serviceMeanMS
}

// tracedRun is the diagnostic run: the same set-up and passes with the nn
// profiler, the telemetry tracer and the benchmark's own spans on for a
// third of the passes, plus the micro-measurements of single layers.
// Nothing it prints is gated.
func tracedRun(o runOpts, log io.Writer) (result, error) {
	procs, width := pinRuntime()
	w := o.w
	sp := &spans{origin: time.Now()}
	inst, st, err := setUp(o, sp)
	if err != nil {
		return result{}, err
	}
	defer func() { inst.sys.close() }()

	v := map[string]float64{
		"serialize.model_load_ms":   durMS(st.load),
		"data.corrupt_us_per_image": durUS(st.corrupt) / float64(w.imagesPerPass()),
	}
	if w.kind != adaptKind {
		v["serve.addgroup_ms"] = durMS(st.addGroup)
	}

	rec := newOpRecord(w.opsPerPass())
	var t tally
	t0 := time.Now()
	inst.sys.pass(inst.in, rec)
	sp.put("warm-up pass", t0, time.Since(t0), -1, -1, 0)
	t.setRef(rec)

	n := o.passes / 3
	if n < 1 {
		n = 1
	}
	images := float64(w.imagesPerPass())

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := runPasses(inst, rec, &t, n, sp, "pass")
	runtime.ReadMemStats(&m1)
	v["runtime.alloc_kb_per_image"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / (images * float64(n))
	v["runtime.mallocs_per_image"] = float64(m1.Mallocs-m0.Mallocs) / (images * float64(n))
	v["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	v["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	before := groupSnapshot(inst)
	tracerStart := time.Now()
	tr := telemetry.StartTracingLimit(1 << 20)
	if tr == nil || !nn.StartProfiling() {
		telemetry.StopTracing()
		return result{}, fmt.Errorf("another tracer or profiler is active")
	}
	traced := runPasses(inst, rec, &t, n, sp, "traced pass")
	totals := nn.StopProfiling()
	telemetry.StopTracing()
	after := groupSnapshot(inst)

	events, err := tracerEvents(tr)
	if err != nil {
		return result{}, err
	}
	v["telemetry.trace_overhead_pct"] = 100 * (median(traced.walls)/median(plain.walls) - 1)
	v["telemetry.dropped"] = float64(tr.Dropped())
	layerMetrics(v, totals, n*w.opsPerPass())

	var checks []string
	if w.kind == adaptKind {
		lat := ms(plain.lat)
		v["core.process_p50_ms"] = quantile(lat, 0.50)
		v["core.process_p95_ms"] = quantile(lat, 0.95)
		share := totals.Total() / traced.latSum().Seconds()
		v["nn.attributed_share"] = share
		if share < 0.9 {
			checks = append(checks, fmt.Sprintf("nn.attributed_share %.3f < 0.9: layer spans no longer cover Process", share))
		}
	} else {
		msg, err := serveMetrics(v, inst, events, plain, traced, before, after, sp, o.short)
		if err != nil {
			return result{}, err
		}
		if msg != "" {
			checks = append(checks, msg)
		}
	}
	if err := microMetrics(v, inst, o, sp, &t, rec, plain); err != nil {
		return result{}, err
	}
	if err := verify(inst, &t); err != nil {
		t.fail(-1, err, "")
	}

	tf := mergeTrace(sp, events, tracerStart, map[string]any{
		"workload": w.name, "seed": o.seed, "gomaxprocs": procs, "kernel_width": width,
		"dropped_events": tr.Dropped(),
	})
	v["telemetry.spans"] = float64(len(tf.TraceEvents))
	if err := writeTrace(o.traceOut, tf); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}

	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: fill(perLayer, v)}
	res.Correct = t.failed == 0 && len(checks) == 0
	fmt.Fprintf(log, "workload %s seed %d (traced): GOMAXPROCS=%d kernel width=%d, %d plain + %d traced passes, trace %s (%d events)\n",
		w.name, o.seed, procs, width, n, n, o.traceOut, len(tf.TraceEvents))
	printMetrics(log, perLayer, res.Metrics, v)
	if t.firstErr != nil {
		fmt.Fprintf(log, "FAILED ops %d of %d; first: %v\n", t.failed, t.attempted, t.firstErr)
	}
	for _, c := range checks {
		fmt.Fprintln(log, "FAILED check:", c)
	}
	return res, nil
}

// layerMetrics turns the nn profiler's totals into per-op milliseconds by
// layer kind and direction.
func layerMetrics(v map[string]float64, totals nn.PhaseTotals, ops int) {
	kinds := []nn.Kind{nn.KindConv, nn.KindPack, nn.KindBN, nn.KindAct, nn.KindPool, nn.KindLinear, nn.KindOther}
	var fw, bw float64
	for _, k := range kinds {
		v["nn.fw_ms."+k.String()] = 1e3 * totals.FwSeconds[k] / float64(ops)
		if k != nn.KindPack { // pack is a contained part of conv, forward only
			v["nn.bw_ms."+k.String()] = 1e3 * totals.BwSeconds[k] / float64(ops)
			fw += totals.FwSeconds[k]
			bw += totals.BwSeconds[k]
		}
	}
	if c := totals.FwSeconds[nn.KindConv]; c > 0 {
		v["nn.conv_bw_over_fw"] = totals.BwSeconds[nn.KindConv] / c
	}
	if fw+bw > 0 {
		v["nn.bw_share_meas"] = bw / (fw + bw)
	}
}

// groupSnapshot reads the serve group's counters from outside; zero for
// the adapt kinds.
func groupSnapshot(inst *instance) serve.GroupSnapshot {
	if inst.srv == nil {
		return serve.GroupSnapshot{}
	}
	snap, _ := inst.srv.GroupSnapshot(inst.key) // the key came from AddGroup
	return snap
}
