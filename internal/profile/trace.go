package profile

import (
	"fmt"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// CaptureKernelTrace runs the adaptation algorithm on the model with the
// span tracer enabled and returns the finished tracer, ready for
// WriteJSON. It is the single-run counterpart of the benchmark's per-kind
// table (`bash bench/run.sh --workload <w> --trace 1`): where that
// aggregates wall time by layer kind, this preserves every layer span on
// the timeline, which is what the trace viewer needs to show where a
// batch's milliseconds actually go. The warm-up Process runs
// before tracing starts, so the trace shows steady-state kernels, not
// cache population.
func CaptureKernelTrace(m *models.Model, algo core.Algorithm, batch, repeats int) (*telemetry.Tracer, error) {
	adapter, err := core.New(algo, m, core.Config{})
	if err != nil {
		return nil, err
	}
	x := tensor.New(batch, m.InC, m.InHW, m.InHW)
	for i := range x.Data {
		x.Data[i] = float32(i%97) / 97
	}
	adapter.Process(x) // warm caches outside the trace

	tr := telemetry.StartTracing()
	if tr == nil {
		return nil, fmt.Errorf("profile: another trace is being collected")
	}
	tr.SetMeta("model", m.Tag)
	tr.SetMeta("algo", algo.String())
	tr.SetMeta("batch", batch)
	tr.SetMeta("repeats", repeats)
	tr.SetMeta("pool_workers", parallel.Workers())
	tr.SetMeta("span_kernel", tensor.SpanKernel())
	for i := 0; i < repeats; i++ {
		adapter.Process(x)
	}
	telemetry.StopTracing()
	return tr, nil
}
