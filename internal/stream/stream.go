// Package stream implements a deterministic discrete-event simulator for
// the paper's deployment setting: a device ingests a fixed-rate frame
// stream, accumulates adaptation batches, and must finish processing each
// batch (inference + adaptation, as priced by internal/device) under a
// deadline. It reports deadline misses, queueing, utilization and
// duty-cycled energy — the quantities behind the paper's warning that even
// the best configuration's 213 ms adaptation overhead "can be a bottleneck
// for tight deadlines" (Sec. IV-E).
package stream

import (
	"fmt"

	"edgetta/internal/telemetry"
)

// Config describes one streaming deployment.
type Config struct {
	// FPS is the input frame rate.
	FPS float64
	// BatchSize is the number of frames per adaptation batch (the paper's
	// 50/100/200).
	BatchSize int
	// ServiceSeconds is the per-batch processing time (take it from
	// device.Estimate: inference plus any adaptation).
	ServiceSeconds float64
	// DeadlineSeconds is the maximum tolerated latency from the moment a
	// batch is complete to the moment its results are ready.
	DeadlineSeconds float64
	// TotalFrames bounds the simulation.
	TotalFrames int
	// QueueCap bounds the number of complete batches waiting for the
	// processor; further batches are dropped. 0 means unbounded.
	QueueCap int
	// PowerBusyW / PowerIdleW integrate the energy over the run.
	PowerBusyW, PowerIdleW float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FPS <= 0 {
		return fmt.Errorf("stream: FPS must be positive, got %v", c.FPS)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("stream: batch size must be positive, got %d", c.BatchSize)
	}
	if c.ServiceSeconds < 0 || c.DeadlineSeconds <= 0 {
		return fmt.Errorf("stream: invalid service/deadline (%v, %v)", c.ServiceSeconds, c.DeadlineSeconds)
	}
	if c.TotalFrames < c.BatchSize {
		return fmt.Errorf("stream: need at least one batch of frames (%d < %d)", c.TotalFrames, c.BatchSize)
	}
	return nil
}

// Result summarizes a simulated run.
type Result struct {
	Batches        int     // batches processed
	Dropped        int     // batches dropped at a full queue
	DeadlineMisses int     // processed batches exceeding the deadline
	MissRate       float64 // misses / processed
	MaxQueueDepth  int     // peak complete-but-unprocessed batches
	MeanLatency    float64 // seconds from batch-complete to done
	WorstLatency   float64
	Utilization    float64 // busy fraction of the simulated wall clock
	SimSeconds     float64
	EnergyJ        float64 // duty-cycled: busy power while serving, idle otherwise
	Stable         bool    // service rate keeps up with arrival rate
	// FramesProcessed / FramesDropped account for every ingested frame:
	// frames of processed batches land in the first bucket, frames of
	// batches dropped at a full queue in the second. Their sum equals the
	// ingested frame count.
	FramesProcessed int
	FramesDropped   int
}

// Simulate runs the event loop. Batches become ready every
// BatchSize/FPS seconds; a single processor serves them FIFO in
// ServiceSeconds each. The simulated clock extends past the ingest window
// while the processor drains its queue.
func Simulate(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	var res Result
	batchPeriod := float64(c.BatchSize) / c.FPS
	nBatches := c.TotalFrames / c.BatchSize

	// With a tracer active, each served batch becomes a span on the
	// simulated timeline (CompleteAt with simulated microseconds — the
	// simulator never reads the wall clock) and each drop an instant
	// marker, so the viewer shows the queueing structure behind a miss
	// rate. Purely observational: the event loop is unchanged.
	tr := telemetry.ActiveTracer()

	procFree := 0.0 // time the processor becomes free
	busy := 0.0
	var queue []float64 // ready times of complete batches waiting

	totalLatency := 0.0
	serve := func(ready, start float64) {
		if start < ready {
			start = ready
		}
		done := start + c.ServiceSeconds
		procFree = done
		busy += c.ServiceSeconds
		lat := done - ready
		totalLatency += lat
		res.Batches++
		res.FramesProcessed += c.BatchSize
		if lat > res.WorstLatency {
			res.WorstLatency = lat
		}
		if lat > c.DeadlineSeconds {
			res.DeadlineMisses++
		}
		if tr != nil {
			tr.CompleteAt("simstream", "batch", 0, int64(start*1e6), int64(c.ServiceSeconds*1e6),
				telemetry.Arg{Key: "frames", Value: c.BatchSize},
				telemetry.Arg{Key: "latency_s", Value: lat},
				telemetry.Arg{Key: "miss", Value: lat > c.DeadlineSeconds})
		}
	}
	for i := range nBatches {
		ready := float64(i+1) * batchPeriod
		// Drain any queued batches that start before this one is ready.
		for len(queue) > 0 && procFree <= ready {
			b := queue[0]
			queue = queue[1:]
			serve(b, procFree)
		}
		if procFree <= ready {
			// Processor idle when the batch arrives: serve immediately.
			serve(ready, ready)
			continue
		}
		// Processor busy: enqueue or drop.
		if c.QueueCap > 0 && len(queue) >= c.QueueCap {
			res.Dropped++
			res.FramesDropped += c.BatchSize
			if tr != nil {
				tr.InstantAt("simstream", "drop", 0, int64(ready*1e6),
					telemetry.Arg{Key: "frames", Value: c.BatchSize})
			}
			continue
		}
		queue = append(queue, ready)
		res.MaxQueueDepth = max(res.MaxQueueDepth, len(queue))
	}
	// Drain the tail of the queue.
	for _, b := range queue {
		serve(b, procFree)
	}

	res.SimSeconds = max(float64(nBatches)*batchPeriod, procFree)
	if res.Batches > 0 {
		res.MeanLatency = totalLatency / float64(res.Batches)
		res.MissRate = float64(res.DeadlineMisses) / float64(res.Batches)
	}
	if res.SimSeconds > 0 {
		res.Utilization = busy / res.SimSeconds
	}
	res.EnergyJ = busy*c.PowerBusyW + (res.SimSeconds-busy)*c.PowerIdleW
	res.Stable = c.ServiceSeconds <= batchPeriod
	return res, nil
}
