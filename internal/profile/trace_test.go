package profile

import (
	"encoding/json"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestBNOptTraceSpans checks what a traced BN-Opt batch leaves on the
// timeline: layer spans for the forward and backward passes, pack sub-spans
// from the packed conv path, and no act span: the rectifiers run inside
// the BatchNorms.
func TestBNOptTraceSpans(t *testing.T) {
	prior := telemetry.StopTracing()
	defer func() {
		if prior != nil {
			telemetry.StartTracing()
		}
	}()

	m := reproWRN(3)
	adapter, err := core.New(core.BNOpt, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, m.InC, m.InHW, m.InHW)
	for i := range x.Data {
		x.Data[i] = float32(i%97) / 97
	}
	adapter.Process(x) // warm caches outside the trace
	tr := telemetry.StartTracing()
	if tr == nil {
		t.Fatal("another trace is being collected")
	}
	adapter.Process(x)
	telemetry.StopTracing()
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if name, ok := e["name"].(string); ok {
			counts[name]++
		}
	}
	// BN-Opt runs forward and backward; WRN is conv/BN-dominated.
	for _, want := range []string{"conv.fw", "conv.bw", "bn.fw", "bn.bw", "pack.fw"} {
		if counts[want] == 0 {
			t.Errorf("trace has no %q spans (got %v)", want, counts)
		}
	}
	// Every rectifier in WRN is the epilogue of a BatchNorm: its time is in
	// the bn spans, and there is no act span to expect.
	if counts["act.fw"]+counts["act.bw"] != 0 {
		t.Errorf("trace has act spans although every rectifier runs in a BatchNorm (got %v)", counts)
	}
}
