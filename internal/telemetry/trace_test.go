package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// clearTracer removes any active tracer (the CI parity arm installs one
// via EDGETTA_TRACE=1 at process start) so Start/Stop tests see a clean
// slate.
func clearTracer() { StopTracing() }

func TestTracerStartStopExclusive(t *testing.T) {
	clearTracer()
	tr := StartTracing()
	if tr == nil {
		t.Fatal("StartTracing returned nil with no active tracer")
	}
	if StartTracing() != nil {
		t.Fatal("second StartTracing succeeded while a trace was active")
	}
	if ActiveTracer() != tr {
		t.Fatal("ActiveTracer does not return the installed tracer")
	}
	if got := StopTracing(); got != tr {
		t.Fatalf("StopTracing returned %p, want %p", got, tr)
	}
	if ActiveTracer() != nil {
		t.Fatal("tracer still active after StopTracing")
	}
	if StopTracing() != nil {
		t.Fatal("StopTracing with no tracer returned non-nil")
	}
}

func TestTracerWriteJSONValid(t *testing.T) {
	clearTracer()
	tr := StartTracing()
	start := time.Now()
	tr.Complete("nn", "conv.fw", 0, start, 3*time.Millisecond, Arg{"layer", "conv1"}, Arg{"macs", 1234})
	tr.Complete("serve", "batch", 2, tr.epoch.Add(1500*time.Microsecond), 250*time.Microsecond, Arg{"frames", 16})
	tr.Instant("policy", "reset", 0, Arg{"entropy", 2.31})
	StopTracing()

	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, out)
	}
	// process_name metadata + 3 events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4\n%s", len(doc.TraceEvents), out)
	}
	byName := map[string]map[string]any{}
	for _, e := range doc.TraceEvents {
		byName[e["name"].(string)] = e
	}
	conv := byName["conv.fw"]
	if conv["ph"] != "X" || conv["cat"] != "nn" {
		t.Errorf("conv.fw event malformed: %v", conv)
	}
	if dur := conv["dur"].(float64); dur < 2999 || dur > 3001 {
		t.Errorf("conv.fw dur = %v µs, want ~3000", dur)
	}
	batch := byName["batch"]
	if batch["ts"].(float64) != 1500 || batch["dur"].(float64) != 250 || batch["tid"].(float64) != 2 {
		t.Errorf("epoch-relative event malformed: %v", batch)
	}
	reset := byName["reset"]
	if reset["ph"] != "i" || reset["s"] != "g" {
		t.Errorf("instant event malformed: %v", reset)
	}
	if doc.Metadata["dropped_events"].(float64) != 0 {
		t.Errorf("dropped_events = %v, want 0", doc.Metadata["dropped_events"])
	}
}

func TestTracerBounded(t *testing.T) {
	clearTracer()
	tr := StartTracingLimit(8)
	for i := 0; i < 20; i++ {
		tr.Instant("t", "tick", 0)
	}
	StopTracing()
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", tr.Dropped())
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metadata["dropped_events"].(float64) != 12 {
		t.Fatalf("metadata dropped_events = %v, want 12", doc.Metadata["dropped_events"])
	}
}

// TestTracerTotalsSurviveTheBound: a complete span the bound drops still
// counts into its (cat, name) running total, from any number of goroutines
// while another reads the total; instants count into none.
func TestTracerTotalsSurviveTheBound(t *testing.T) {
	clearTracer()
	tr := StartTracingLimit(2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 5; i++ {
				tr.Complete("nn", "conv.fw", 0, time.Now(), time.Duration(i)*time.Microsecond)
				tr.Total("nn", "conv.fw")
			}
		}()
	}
	wg.Wait()
	tr.Complete("nn", "bn.fw", 0, tr.epoch, 7*time.Microsecond)
	tr.Instant("nn", "conv.fw", 0)
	StopTracing()
	if tr.Dropped() != 20 {
		t.Fatalf("Dropped = %d, want 20", tr.Dropped())
	}
	for _, tc := range []struct {
		cat, name string
		want      SpanTotal
	}{
		{"nn", "conv.fw", SpanTotal{20, 60 * time.Microsecond}},
		{"nn", "bn.fw", SpanTotal{1, 7 * time.Microsecond}},
		{"sim", "conv.fw", SpanTotal{}},
	} {
		if got := tr.Total(tc.cat, tc.name); got != tc.want {
			t.Errorf("Total(%q, %q) = %+v, want %+v", tc.cat, tc.name, got, tc.want)
		}
	}
}

// BenchmarkTracerDisabled pins the disabled fast path: one atomic load and
// a nil check, no allocation.
func BenchmarkTracerDisabled(b *testing.B) {
	clearTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr := ActiveTracer(); tr != nil {
			tr.Instant("bench", "never", 0)
		}
	}
}
