package core

import (
	"strings"
	"time"

	"edgetta/internal/nn"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// Streamer is the batch-iterator contract the online protocol consumes:
// data.Stream (fixed corruption) and data.ScheduledStream (temporally-
// shifting scenarios) both satisfy it, so the same drivers — and everything
// built on them, robustbench and internal/serve included — run either.
type Streamer interface {
	// Next returns the next batch of up to n samples, or ok=false when the
	// stream is exhausted.
	Next(n int) (x *tensor.Tensor, labels []int, ok bool)
}

// StreamResult summarizes online adaptation over one test stream.
type StreamResult struct {
	Samples   int
	Correct   int
	Batches   int
	ErrorRate float64 // 1 − accuracy, in [0,1]
	// Latency is the distribution of per-batch Process wall time
	// (inference plus adaptation), reported in the same shape as the
	// serving front-end's metrics so batch and served runs are comparable.
	Latency telemetry.Summary
}

// RunStream executes the paper's online protocol: the adapter processes
// the stream batch by batch (inference plus adaptation at every batch) and
// prediction error is accumulated over the whole stream. The adapter is
// Reset first so each stream is an independent episode.
func RunStream(a Adapter, s Streamer, batchSize int) StreamResult {
	a.Reset()
	var res StreamResult
	var hist telemetry.Hist
	for {
		x, labels, ok := s.Next(batchSize)
		if !ok {
			break
		}
		t0 := time.Now()
		logits := a.Process(x)
		hist.Observe(time.Since(t0))
		preds := logits.ArgmaxRows()
		for i, p := range preds {
			if p == labels[i] {
				res.Correct++
			}
		}
		res.Samples += len(labels)
		res.Batches++
	}
	if res.Samples > 0 {
		res.ErrorRate = 1 - float64(res.Correct)/float64(res.Samples)
	}
	res.Latency = hist.Summary()
	return res
}

// VerifyOnlyBNAdapted reports whether every non-BN parameter of the model
// equals its value in ref. The adaptation algorithms must touch nothing
// but BN state; tests and examples use this as a safety check.
func VerifyOnlyBNAdapted(params, ref []*nn.Param) bool {
	if len(params) != len(ref) {
		return false
	}
	for i, p := range params {
		// BN params are named ...gamma / ...beta by construction.
		if strings.HasSuffix(p.Name, ".gamma") || strings.HasSuffix(p.Name, ".beta") {
			continue
		}
		for j := range p.Data {
			if p.Data[j] != ref[i].Data[j] {
				return false
			}
		}
	}
	return true
}
