package serve

import (
	"context"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/tensor"
)

// scaleTicks runs n controller evaluations and returns the group's
// snapshot after the last.
func scaleTicks(srv *Server, key GroupKey, n int) GroupSnapshot {
	for i := 0; i < n; i++ {
		srv.ScaleTick()
	}
	s, _ := srv.GroupSnapshot(key)
	return s
}

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

	inj := &gateInjector{entered: make(chan struct{}), release: make(chan Fault)}
	srv := New(Config{
		QueueCap: 64,
		Injector: inj,
		Autoscale: Autoscale{
			Enabled:  true,
			Min:      1,
			Max:      3,
			Interval: time.Hour, // ticks are driven manually below
		},
	})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}

	// Pipeline every stream's batch at once: six requests against one
	// replica is past the up-threshold, and stays past it at two replicas
	// because every dispatch is held at the injection gate while the pool
	// grows — the queue only shortens by the one request each replica holds.
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
	<-inj.entered

	// Each streak of upAfter pressured ticks must add one replica.
	s := scaleTicks(srv, key, 2*upAfter)
	if s.Replicas != 3 {
		t.Fatalf("after %d pressured ticks: Replicas = %d, want 3", 2*upAfter, s.Replicas)
	}
	if s.ScaleUps != 2 {
		t.Errorf("ScaleUps = %d, want 2", s.ScaleUps)
	}
	if s.MinReplicas != 1 || s.MaxReplicas != 3 {
		t.Errorf("snapshot clamp = [%d, %d], want [1, 3]", s.MinReplicas, s.MaxReplicas)
	}

	// A third pressured streak must respect the Max clamp.
	if s = scaleTicks(srv, key, upAfter); s.Replicas != 3 {
		t.Fatalf("Max clamp violated: Replicas = %d, want 3", s.Replicas)
	}

	// Drain everything; grown replicas served part of the work, and the
	// determinism contract must have survived the membership changes.
	defer inj.open()()
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

	// Idle now: each streak of downAfter idle ticks retires one replica,
	// and the pool must stop at Min.
	if s = scaleTicks(srv, key, 2*downAfter); s.Replicas != 1 {
		t.Fatalf("after %d idle ticks: Replicas = %d, want 1 (3 → 2 → 1)", 2*downAfter, s.Replicas)
	}
	if s.ScaleDowns != 2 {
		t.Errorf("ScaleDowns = %d, want 2", s.ScaleDowns)
	}
	if s = scaleTicks(srv, key, downAfter); s.Replicas != 1 {
		t.Fatalf("Min clamp violated: Replicas = %d, want 1", s.Replicas)
	}

	// The shrunken pool must still serve correctly.
	st := streams[0]
	if _, err := st.ProcessCtx(t.Context(), inputs[0][0]); err != nil {
		t.Fatalf("serve after scale-down: %v", err)
	}
}

// TestAutoscaleHysteresis checks a pressured streak shorter than upAfter
// does not grow the pool, and that an intervening idle tick resets the
// streak.
func TestAutoscaleHysteresis(t *testing.T) {
	base := testModel()
	const burst = 1 + upDepthPerReplica // one request held by the replica, the rest queued
	inputs := streamInputs(1, 2*burst*4, 4, 3)[0]

	inj := &gateInjector{entered: make(chan struct{}), release: make(chan Fault)}
	srv := New(Config{
		QueueCap: 64,
		Injector: inj,
		Autoscale: Autoscale{
			Enabled:  true,
			Min:      1,
			Max:      3,
			Interval: time.Hour,
		},
	})
	defer srv.Close()
	key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 1)
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	st, _ := srv.OpenStream(key)

	// submit puts the pool under pressure: the replica holds the first
	// request at the injection gate, upDepthPerReplica wait behind it.
	submit := func(xs []*tensor.Tensor) (chans []<-chan Response) {
		for _, x := range xs {
			chans = append(chans, st.SubmitCtx(context.Background(), x))
		}
		<-inj.entered
		return chans
	}

	first := submit(inputs[:burst])
	if s := scaleTicks(srv, key, upAfter-1); s.Replicas != 1 {
		t.Fatalf("grew after %d of %d required pressured ticks: Replicas = %d", upAfter-1, upAfter, s.Replicas)
	}
	// Serve the burst one dispatch at a time, then tick once on the idle
	// pool: the streak starts over.
	for i, ch := range first {
		if i > 0 {
			<-inj.entered
		}
		inj.release <- Fault{}
		if r := <-ch; r.Err != nil {
			t.Fatalf("request failed: %v", r.Err)
		}
	}
	scaleTicks(srv, key, 1)

	second := submit(inputs[burst:])
	if s := scaleTicks(srv, key, upAfter-1); s.Replicas != 1 {
		t.Fatalf("an idle tick did not reset the streak: Replicas = %d after %d + %d pressured ticks around it", s.Replicas, upAfter-1, upAfter-1)
	}
	if s := scaleTicks(srv, key, 1); s.Replicas != 2 {
		t.Fatalf("after %d consecutive pressured ticks: Replicas = %d, want 2", upAfter, s.Replicas)
	}
	defer inj.open()()
	for _, ch := range second {
		if r := <-ch; r.Err != nil {
			t.Fatalf("request failed: %v", r.Err)
		}
	}
}
