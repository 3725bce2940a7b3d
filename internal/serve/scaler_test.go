package serve

import (
	"context"
	"testing"
	"time"

	"edgetta/internal/core"
)

// TestAutoscaleGrowsUnderPressureAndShrinksWhenIdle drives the scale
// controller by hand (Interval is set far beyond the test's lifetime, so
// ScaleTick is the only actor) and checks the full cycle: queue pressure
// grows the pool toward Max, idleness shrinks it back to Min with
// hysteresis, and the outputs stay byte-identical to serial throughout —
// replicas joining and retiring mid-stream must be invisible to results.
func TestAutoscaleGrowsUnderPressureAndShrinksWhenIdle(t *testing.T) {
	const nStreams = 6
	base := testModel()
	inputs := streamInputs(nStreams, 4, 4, 3)

	srv := New(Config{
		QueueCap: 64,
		Autoscale: Autoscale{
			Enabled:           true,
			Min:               1,
			Max:               3,
			UpDepthPerReplica: 2,
			UpAfter:           1,
			DownAfter:         2,
			Interval:          time.Hour, // ticks are driven manually below
		},
	})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	// Pipeline every stream's episode at once: 24 queued requests against
	// one replica is deep past the up-threshold.
	streams := make([]*Stream, nStreams)
	resps := make([][]<-chan Response, nStreams)
	for i := range streams {
		if streams[i], err = srv.OpenStream(key); err != nil {
			t.Fatalf("OpenStream: %v", err)
		}
		for _, x := range inputs[i] {
			resps[i] = append(resps[i], streams[i].SubmitCtx(t.Context(), x))
		}
	}

	// Two pressured ticks with UpAfter=1 must add a replica each.
	srv.ScaleTick()
	srv.ScaleTick()
	s, _ := srv.GroupSnapshot(key)
	if s.Replicas != 3 {
		t.Fatalf("after 2 pressured ticks: Replicas = %d, want 3", s.Replicas)
	}
	if s.ScaleUps != 2 {
		t.Errorf("ScaleUps = %d, want 2", s.ScaleUps)
	}
	if s.MinReplicas != 1 || s.MaxReplicas != 3 {
		t.Errorf("snapshot clamp = [%d, %d], want [1, 3]", s.MinReplicas, s.MaxReplicas)
	}

	// A third pressured tick must respect the Max clamp.
	srv.ScaleTick()
	if s, _ = srv.GroupSnapshot(key); s.Replicas != 3 {
		t.Fatalf("Max clamp violated: Replicas = %d, want 3", s.Replicas)
	}

	// Drain everything; grown replicas served part of the work, and the
	// determinism contract must have survived the membership changes.
	for i := range resps {
		var got [][]float32
		for b, ch := range resps[i] {
			r := <-ch
			if r.Err != nil {
				t.Fatalf("stream %d batch %d: %v", i, b, r.Err)
			}
			got = append(got, append([]float32(nil), r.Logits.Data...))
		}
		want := serialLogits(t, base, core.BNNorm, core.Config{}, inputs[i])
		compareLogits(t, i, want, got)
	}

	// Idle now. DownAfter=2: each pair of idle ticks retires one replica,
	// and the pool must stop at Min.
	for tick := 0; tick < 4; tick++ {
		srv.ScaleTick()
	}
	if s, _ = srv.GroupSnapshot(key); s.Replicas != 1 {
		t.Fatalf("after 4 idle ticks: Replicas = %d, want 1 (3 → 2 → 1 with DownAfter=2)", s.Replicas)
	}
	if s.ScaleDowns != 2 {
		t.Errorf("ScaleDowns = %d, want 2", s.ScaleDowns)
	}
	for tick := 0; tick < 4; tick++ {
		srv.ScaleTick()
	}
	if s, _ = srv.GroupSnapshot(key); s.Replicas != 1 {
		t.Fatalf("Min clamp violated: Replicas = %d, want 1", s.Replicas)
	}

	// The shrunken pool must still serve correctly.
	st := streams[0]
	if _, err := st.ProcessCtx(t.Context(), inputs[0][0]); err != nil {
		t.Fatalf("serve after scale-down: %v", err)
	}
}

// TestAutoscaleHysteresis checks a single pressured tick does not grow the
// pool when UpAfter demands a streak, and that an intervening idle tick
// resets the streak.
func TestAutoscaleHysteresis(t *testing.T) {
	base := testModel()
	inputs := streamInputs(1, 8, 4, 3)[0]

	srv := New(Config{
		QueueCap: 64,
		Autoscale: Autoscale{
			Enabled:           true,
			Min:               1,
			Max:               3,
			UpDepthPerReplica: 1,
			UpAfter:           3,
			DownAfter:         100, // never down in this test
			Interval:          time.Hour,
		},
	})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, _ := srv.OpenStream(key)

	var chans []<-chan Response
	for _, x := range inputs {
		chans = append(chans, st.SubmitCtx(context.Background(), x))
	}
	srv.ScaleTick()
	srv.ScaleTick()
	if s, _ := srv.GroupSnapshot(key); s.Replicas != 1 {
		t.Fatalf("grew after %d of %d required pressured ticks: Replicas = %d", 2, 3, s.Replicas)
	}
	srv.ScaleTick()
	if s, _ := srv.GroupSnapshot(key); s.Replicas != 2 {
		t.Fatalf("after 3 pressured ticks: Replicas = %d, want 2", s.Replicas)
	}
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatalf("request failed: %v", r.Err)
		}
	}
}
