package serve

import (
	"context"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestServeRegistryMetrics drives a group with a registry attached and
// checks the published counters and gauges against the served traffic.
func TestServeRegistryMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Registry: reg})
	defer srv.Close()
	m := testModel()
	key, err := srv.AddGroup(m, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.OpenStream(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.ProcessSeq(context.Background(), tensor.New(2, m.InC, m.InHW, m.InHW), 0); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	label := `{group="` + key.String() + `"}`
	for _, want := range []string{
		"edgetta_serve_requests_total" + label + " 3",
		"edgetta_serve_images_total" + label + " 6",
		"edgetta_serve_open_streams" + label + " 1",
		"edgetta_serve_queue_depth" + label + " 0",
		"edgetta_serve_service_seconds_count" + label + " 3",
		"edgetta_serve_e2e_seconds_count" + label + " 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}

	// The memory axis: what the replica's activation arena holds after its
	// last dispatch — a No-Adapt pass at batch 2, a few buffers' worth.
	if strings.Contains(out, "edgetta_serve_activation_bytes"+label+" 0\n") ||
		!strings.Contains(out, "edgetta_serve_activation_bytes"+label+" ") {
		t.Errorf("activation_bytes gauge missing or zero after three dispatches\n%s", out)
	}

	st.Close()
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "edgetta_serve_open_streams"+label+" 0\n") {
		t.Error("open_streams gauge not decremented on Close")
	}
}

// TestGroupStatsSnapshotFields pins the satellite additions: queue depth,
// lifetime coalesced count, and per-stream snapshots sorted by ID.
func TestGroupStatsSnapshotFields(t *testing.T) {
	srv := New(Config{MaxBatch: 8, MaxLinger: 0})
	defer srv.Close()
	m := testModel()
	key, err := srv.AddGroup(m, core.NoAdapt, core.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var streams []*Stream
	for i := 0; i < 3; i++ {
		st, err := srv.OpenStream(key)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	for round := 0; round < 2; round++ {
		var resps []<-chan Response
		for _, st := range streams {
			resps = append(resps, st.SubmitCtx(context.Background(), tensor.New(1, m.InC, m.InHW, m.InHW)))
		}
		for _, ch := range resps {
			if r := <-ch; r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}

	all := srv.Snapshot().Groups
	if len(all) != 1 {
		t.Fatalf("Stats returned %d groups, want 1", len(all))
	}
	s := all[0]
	if s.Key != key {
		t.Fatalf("Stats key = %v, want %v", s.Key, key)
	}
	if s.Requests != 6 || s.Images != 6 {
		t.Fatalf("Requests/Images = %d/%d, want 6/6", s.Requests, s.Images)
	}
	if s.QueueDepth != 0 || s.PendingImages != 0 {
		t.Errorf("idle queue depth %d (%d images), want 0", s.QueueDepth, s.PendingImages)
	}
	// With a single replica and pipelined submits, at least one Process
	// call must have coalesced multiple requests.
	if s.Batches == 6 && s.Coalesced != 0 {
		t.Errorf("no coalescing happened but Coalesced = %d", s.Coalesced)
	}
	if s.Batches < 6 && s.Coalesced == 0 {
		t.Errorf("%d batches served 6 requests but Coalesced = 0", s.Batches)
	}
	if len(s.Streams) != 3 {
		t.Fatalf("got %d stream snapshots, want 3", len(s.Streams))
	}
	for i, ss := range s.Streams {
		if ss.ID != i {
			t.Errorf("stream snapshot %d has ID %d (want ascending by ID)", i, ss.ID)
		}
		if ss.Requests != 2 || ss.Images != 2 {
			t.Errorf("stream %d: Requests/Images = %d/%d, want 2/2", ss.ID, ss.Requests, ss.Images)
		}
		if ss.E2E.Count != 2 {
			t.Errorf("stream %d: E2E.Count = %d, want 2", ss.ID, ss.E2E.Count)
		}
	}
}
