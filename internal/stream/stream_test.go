package stream

import (
	"math"
	"testing"
	"testing/quick"
)

func base() Config {
	return Config{
		FPS: 30, BatchSize: 50, ServiceSeconds: 0.3, DeadlineSeconds: 0.5,
		TotalFrames: 3000, PowerBusyW: 9.4, PowerIdleW: 3.0,
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{FPS: 0, BatchSize: 50, ServiceSeconds: 1, DeadlineSeconds: 1, TotalFrames: 100},
		{FPS: 30, BatchSize: 0, ServiceSeconds: 1, DeadlineSeconds: 1, TotalFrames: 100},
		{FPS: 30, BatchSize: 50, ServiceSeconds: -1, DeadlineSeconds: 1, TotalFrames: 100},
		{FPS: 30, BatchSize: 50, ServiceSeconds: 1, DeadlineSeconds: 0, TotalFrames: 100},
		{FPS: 30, BatchSize: 50, ServiceSeconds: 1, DeadlineSeconds: 1, TotalFrames: 10},
	}
	for i, c := range bad {
		if _, err := Simulate(c); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestStableStreamMeetsDeadlines(t *testing.T) {
	// batch period = 50/30 ≈ 1.67 s ≫ 0.3 s service: no queueing at all.
	r, err := Simulate(base())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stable || r.DeadlineMisses != 0 || r.MaxQueueDepth != 0 || r.Dropped != 0 {
		t.Fatalf("stable stream misbehaved: %+v", r)
	}
	if r.Batches != 60 {
		t.Fatalf("processed %d batches, want 60", r.Batches)
	}
	if math.Abs(r.MeanLatency-0.3) > 1e-9 {
		t.Fatalf("latency %v, want exactly the service time", r.MeanLatency)
	}
}

func TestOverloadedStreamQueuesAndMisses(t *testing.T) {
	c := base()
	c.ServiceSeconds = 4.0 // > 1.67 s batch period: overload
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stable {
		t.Fatal("overloaded config reported stable")
	}
	if r.DeadlineMisses == 0 || r.MaxQueueDepth == 0 {
		t.Fatalf("overload should queue and miss: %+v", r)
	}
	if r.WorstLatency <= r.MeanLatency {
		t.Fatal("worst latency must exceed mean under queueing")
	}
	// Latency must grow roughly linearly with batch index under overload.
	if r.WorstLatency < 60 {
		t.Fatalf("worst latency %v suspiciously small for sustained overload", r.WorstLatency)
	}
}

func TestBoundedQueueDrops(t *testing.T) {
	c := base()
	c.ServiceSeconds = 4.0
	c.QueueCap = 2
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped == 0 {
		t.Fatal("bounded queue under overload must drop batches")
	}
	if r.MaxQueueDepth > 2 {
		t.Fatalf("queue depth %d exceeded cap 2", r.MaxQueueDepth)
	}
	if r.Batches+r.Dropped != 60 {
		t.Fatalf("batches %d + dropped %d != 60", r.Batches, r.Dropped)
	}
}

func TestEnergyAccounting(t *testing.T) {
	r, err := Simulate(base())
	if err != nil {
		t.Fatal(err)
	}
	busy := r.Utilization * r.SimSeconds
	want := busy*9.4 + (r.SimSeconds-busy)*3.0
	if math.Abs(r.EnergyJ-want) > 1e-6 {
		t.Fatalf("energy %v, want %v", r.EnergyJ, want)
	}
	// A faster service (lower utilization) must save energy when busy
	// power exceeds idle power.
	fast := base()
	fast.ServiceSeconds = 0.1
	rf, _ := Simulate(fast)
	if rf.EnergyJ >= r.EnergyJ {
		t.Fatalf("faster service should cost less energy: %v vs %v", rf.EnergyJ, r.EnergyJ)
	}
}

func TestUtilizationMatchesTheory(t *testing.T) {
	r, err := Simulate(base())
	if err != nil {
		t.Fatal(err)
	}
	// ρ = service / batch period for a stable deterministic queue.
	want := 0.3 / (50.0 / 30.0)
	if math.Abs(r.Utilization-want) > 0.02 {
		t.Fatalf("utilization %v, want ~%v", r.Utilization, want)
	}
}

// Property: conservation — every ready batch is either processed or
// dropped, and all metrics are finite and nonnegative.
func TestConservationProperty(t *testing.T) {
	f := func(svc10ms uint8, batch uint8, cap8 uint8) bool {
		c := base()
		c.ServiceSeconds = float64(svc10ms%200) * 0.01
		c.BatchSize = int(batch%100) + 10
		c.QueueCap = int(cap8 % 4)
		c.TotalFrames = 50 * c.BatchSize
		r, err := Simulate(c)
		if err != nil {
			return false
		}
		total := c.TotalFrames / c.BatchSize
		if r.Batches+r.Dropped != total {
			return false
		}
		return r.MissRate >= 0 && r.MissRate <= 1 &&
			r.Utilization >= 0 && r.Utilization <= 1.0001 &&
			r.MeanLatency >= 0 && r.EnergyJ >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPaperHeadlineScenario prices the paper's own Sec. IV-E concern: on
// the NX GPU, WRN-50 BN-Norm takes 0.315 s per 50-frame batch. At 30 FPS
// (batch period 1.67 s) that is comfortably real-time; at 300 FPS (batch
// period 0.167 s) it is not.
func TestPaperHeadlineScenario(t *testing.T) {
	c := base()
	c.ServiceSeconds = 0.315
	c.DeadlineSeconds = 0.5
	r, err := Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.MissRate != 0 {
		t.Fatalf("30 FPS should be feasible: %+v", r)
	}
	c.FPS = 300
	r, err = Simulate(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stable || r.MissRate == 0 {
		t.Fatalf("300 FPS should overload the adapter: %+v", r)
	}
}
