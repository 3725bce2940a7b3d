package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestObservabilityEndpoints drives a tiny server through the HTTP mux:
// /metrics must expose the group's counters after traffic, /debug/streams
// must decode as group snapshots, and /debug/trace must capture spans
// from a request processed while recording.
func TestObservabilityEndpoints(t *testing.T) {
	// /debug/trace needs the process tracer slot free.
	if telemetry.StopTracing() != nil {
		defer telemetry.StartTracing()
	}

	reg := telemetry.NewRegistry()
	reg.GaugeFunc("edgetta_pool_workers", func() float64 { return 1 })
	m := models.PreActResNet18(rand.New(rand.NewSource(42)), models.ReproScale)
	srv := serve.New(serve.Config{Registry: reg})
	defer srv.Close()
	key, err := srv.AddGroup(m, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(buildMux(reg, srv, httpapi.Config{}))
	defer ts.Close()

	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, m.InC, m.InHW, m.InHW)
	process := func() {
		t.Helper()
		if _, err := st.ProcessCtx(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	process()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		`edgetta_serve_requests_total{group="` + key.String() + `"} 1`,
		`edgetta_serve_images_total{group="` + key.String() + `"} 2`,
		"# TYPE edgetta_serve_service_seconds summary",
		"edgetta_pool_workers",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
	jsonBody, ct := get("/metrics?format=json")
	if !strings.HasPrefix(ct, "application/json") || !json.Valid([]byte(jsonBody)) {
		t.Errorf("/metrics?format=json: content type %q, valid=%v", ct, json.Valid([]byte(jsonBody)))
	}

	streamsBody, _ := get("/debug/streams")
	var snap serve.Snapshot
	if err := json.Unmarshal([]byte(streamsBody), &snap); err != nil {
		t.Fatalf("/debug/streams: %v\n%s", err, streamsBody)
	}
	if len(snap.Groups) != 1 || snap.Groups[0].Requests != 1 || len(snap.Groups[0].Streams) != 1 {
		t.Fatalf("/debug/streams snapshot = %+v", snap)
	}
	if snap.Groups[0].Key != key {
		t.Errorf("/debug/streams key round-trip = %+v, want %+v", snap.Groups[0].Key, key)
	}

	// The wire API rides the same mux: open a session, submit one batch,
	// close — the snapshot must then count the remote request too.
	client := httpapi.NewClient(ts.URL, ts.Client())
	cs, err := client.Open(m.Tag, "noadapt")
	if err != nil {
		t.Fatalf("wire open: %v", err)
	}
	if _, err := cs.Process(x); err != nil {
		t.Fatalf("wire process: %v", err)
	}
	if ss, err := cs.Close(); err != nil || ss.Requests != 1 {
		t.Fatalf("wire close: snapshot %+v, err %v", ss, err)
	}

	// Record a short trace with traffic in flight. The handler installs
	// the tracer asynchronously, so wait for it before sending traffic.
	done := make(chan string)
	go func() {
		body, _ := get("/debug/trace?sec=0.3")
		done <- body
	}()
	for i := 0; telemetry.ActiveTracer() == nil; i++ {
		if i > 1000 {
			t.Fatal("trace handler never started recording")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		process()
	}
	traceBody := <-done
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(traceBody), &doc); err != nil {
		t.Fatalf("/debug/trace: invalid JSON: %v", err)
	}
	found := false
	for _, e := range doc.TraceEvents {
		if name, _ := e["name"].(string); strings.HasPrefix(name, "process:") {
			found = true
		}
	}
	if !found {
		t.Errorf("trace has no serve process spans (%d events)", len(doc.TraceEvents))
	}
}

// TestParseScaleRange: -scale takes exactly two integers with
// 1 <= min <= max; trailing input is an error, not ignored.
func TestParseScaleRange(t *testing.T) {
	for _, c := range []struct {
		in       string
		min, max int
		ok       bool
	}{
		{"1:8", 1, 8, true},
		{"2:3.5", 0, 0, false},
		{"1:8:9", 0, 0, false},
		{"0:4", 0, 0, false},
		{"3:2", 0, 0, false},
		{"abc", 0, 0, false},
	} {
		min, max, err := parseScaleRange(c.in)
		if (err == nil) != c.ok || min != c.min || max != c.max {
			t.Errorf("parseScaleRange(%q) = %d, %d, %v; want %d, %d, ok=%v", c.in, min, max, err, c.min, c.max, c.ok)
		}
	}
}
