package core

import (
	"math/rand"
	"runtime"
	"testing"

	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestSteadyStateProcessAllocations pins what the activation arena is for:
// once an adapter has seen a batch shape, Process on the next batch of that
// shape allocates the logits, the loss gradient and a bounded handful of
// small objects — a scheduler closure per loop that forks, the staging-time
// counter a conv's closure captures — and no activation,
// no conv plan and no transient buffer: 4–17 KB in 36–171 objects as
// measured (BN-Opt on the repro ResNeXt the largest), with or without the
// race detector, against ≈ 44 MB for a BN-Norm batch of 50 there before the
// arena.
func TestSteadyStateProcessAllocations(t *testing.T) {
	if telemetry.ActiveTracer() != nil {
		t.Skip("a tracer is active: every span allocates")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	const maxBytes, maxObjects = 32 << 10, 190
	for _, build := range []models.Builder{models.ResNeXt29, models.WideResNet402} {
		for _, algo := range Algorithms {
			m := build(rand.New(rand.NewSource(1)), models.ReproScale)
			a, err := New(algo, m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.New(50, m.InC, m.InHW, m.InHW)
			x.Uniform(rand.New(rand.NewSource(2)), 0, 1)
			a.Process(x)
			a.Process(x) // the arena has seen every shape
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				a.Process(x)
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			objects := (after.Mallocs - before.Mallocs) / runs
			t.Logf("%s %s: %d bytes in %d objects per batch", m.Tag, algo, bytes, objects)
			if bytes > maxBytes || objects > maxObjects {
				t.Errorf("%s %s: a steady-state batch allocates %d bytes in %d objects, want ≤ %d in ≤ %d",
					m.Tag, algo, bytes, objects, maxBytes, maxObjects)
			}
		}
	}
}
