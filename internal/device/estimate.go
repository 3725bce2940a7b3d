package device

import (
	"fmt"

	"edgetta/internal/core"
	"edgetta/internal/profile"
)

// Phases breaks a batch's processing time into the same categories the
// paper's Autograd-profiler figures use (Figs. 4, 7, 10), in seconds.
type Phases struct {
	ConvFw  float64 // convolution + linear forward
	BNFw    float64 // batch-norm forward (eval or batch-stat)
	OtherFw float64 // activations, pooling, dispatch overhead
	ConvBw  float64 // convolution backward (BN-Opt only)
	BNBw    float64 // batch-norm backward (BN-Opt only)
	OtherBw float64 // remaining backward + optimizer step
}

// Total sums all phases.
func (p Phases) Total() float64 {
	return p.ConvFw + p.BNFw + p.OtherFw + p.ConvBw + p.BNBw + p.OtherBw
}

// Report is the simulator's estimate for one configuration processing one
// adaptation batch (inference plus any adaptation), matching the paper's
// "average forward time per batch" metric.
type Report struct {
	DeviceTag  string
	EngineName string
	Kind       EngineKind
	ModelTag   string
	Algo       core.Algorithm
	Batch      int

	Seconds float64 // forward time per batch (inference + adaptation)
	EnergyJ float64 // energy per batch
	Phases  Phases

	PeakMemBytes int64
	OOM          bool
}

// String formats the headline numbers.
func (r Report) String() string {
	oom := ""
	if r.OOM {
		oom = " [OOM]"
	}
	return fmt.Sprintf("%s/%s %s %s b%d: %.3fs %.2fJ %.0fMB%s",
		r.DeviceTag, r.EngineName, r.ModelTag, r.Algo, r.Batch,
		r.Seconds, r.EnergyJ, float64(r.PeakMemBytes)/float64(mb), oom)
}

// Estimate predicts latency, energy and memory for running the given
// adaptation algorithm over one batch on the selected engine. The model is
// described by its single-image profile; all charged quantities scale
// linearly with batch size.
func Estimate(d *Device, kind EngineKind, p *profile.ModelProfile, algo core.Algorithm, batch int) (Report, error) {
	eng, ok := d.EngineByKind(kind)
	if !ok {
		return Report{}, fmt.Errorf("device: %s has no %s engine", d.Tag, kind)
	}
	s := p.Summary
	b := float64(batch)

	// --- Forward compute ---
	groupExtra := float64(p.GroupMACs) * (eng.GroupPenalty - 1)
	convMACs := (float64(s.ConvMACs+s.LinearMACs) + groupExtra) * b
	convFw := convMACs / 1e9 / eng.MACRate

	bnElems := float64(s.BNElems) * b
	bigElems := float64(s.BigBNElems) * b
	var bnFw float64
	if algo == core.NoAdapt {
		bnFw = bnElems / 1e9 / eng.BNEvalRate
	} else {
		// Batch-statistics BN: mean/var reductions plus normalization.
		bnFw = (bnElems-bigElems)/1e9/eng.BNTrainRate +
			bigElems*eng.BigBNCliff/1e9/eng.BNTrainRate
	}

	layers := float64(s.ConvLayers + s.BNLayers + s.ActLayers + 2)
	otherFw := float64(s.ActElems)*b/1e9/eng.ActRate + layers*eng.LayerOverhead.Seconds()

	ph := Phases{ConvFw: convFw, BNFw: bnFw, OtherFw: otherFw}

	// --- Backward pass (BN-Opt only): entropy loss backprop through every
	// layer to reach all BN affine parameters, then one Adam step. Only
	// input gradients are formed (see Engine.BwMult), which is also all
	// core's BN-Opt executes now that it freezes every non-BN parameter. ---
	if algo == core.BNOpt {
		ph.ConvBw = convFw * eng.BwMult
		ph.BNBw = bnElems / 1e9 / eng.BNBwRate
		adamFLOPs := float64(s.BNParams) * 10
		ph.OtherBw = float64(s.ActElems)*b/1e9/eng.ActRate +
			layers*eng.LayerOverhead.Seconds() +
			adamFLOPs/1e9/eng.MACRate
	}

	// --- Memory ---
	runtime := d.RuntimeBytes
	if kind == GPU {
		runtime += d.GPUExtraBytes
	}
	weights := p.Stats.Bytes * 2 // parameters + gradient/workspace buffers
	savedBytes := float64(s.SavedElems) * 4 * b
	var peak int64
	if algo == core.BNOpt {
		peak = runtime + weights + int64(savedBytes*graphDedup)
	} else {
		peak = runtime + weights + int64(savedBytes*transientFraction)
	}
	oom := peak > d.MemBytes-d.OSReserveBytes

	sec := ph.Total()
	return Report{
		DeviceTag: d.Tag, EngineName: eng.Name, Kind: kind,
		ModelTag: p.Tag, Algo: algo, Batch: batch,
		Seconds: sec, EnergyJ: sec * eng.PowerBusy, Phases: ph,
		PeakMemBytes: peak, OOM: oom,
	}, nil
}

// GraphBytes reports the simulated dynamic-graph footprint for BN-Opt at
// the given batch — the quantity the paper's memory profiler reports
// (3.12 GB / 5.1 GB for ResNeXt at batch 100 / 200). withProfiler adds the
// profiler's own residency.
func GraphBytes(p *profile.ModelProfile, batch int, withProfiler bool) int64 {
	saved := int64(float64(p.Summary.SavedElems) * 4 * float64(batch) * graphDedup)
	if withProfiler {
		saved += ProfilerOverheadBytes
	}
	return saved
}

// AdaptOverhead returns the extra seconds the algorithm adds over NoAdapt
// for the same configuration — the paper's "extra adaptation time".
func AdaptOverhead(d *Device, kind EngineKind, p *profile.ModelProfile, algo core.Algorithm, batch int) (float64, error) {
	base, err := Estimate(d, kind, p, core.NoAdapt, batch)
	if err != nil {
		return 0, err
	}
	r, err := Estimate(d, kind, p, algo, batch)
	if err != nil {
		return 0, err
	}
	return r.Seconds - base.Seconds, nil
}
