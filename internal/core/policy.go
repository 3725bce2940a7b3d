package core

import (
	"edgetta/internal/nn"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// Policy configures the adapter lifecycle under temporally-shifting
// streams. The paper's protocol resets adapters between corruption
// episodes because it knows where the episodes are; production traffic
// does not announce its shifts, so the policy has to detect them from the
// only signal available at test time — the model's own predictions — or
// continuously regularize so drift can never compound.
//
// Two mechanisms, composable:
//
//   - Hard reset on detected shift: track an exponential baseline of the
//     per-batch mean prediction entropy; when a batch's entropy jumps above
//     ResetThreshold × baseline, the underlying adapter is Reset to its
//     episode-start state and the batch is re-served from fresh state. An
//     abrupt corruption switch shows up as exactly this jump: the adapter
//     is confident (low entropy) on the distribution it tuned itself to,
//     and abruptly uncertain on the new one.
//
//   - Source EMA regularization: after every batch, pull the adaptable BN
//     state (γ, β, running statistics) back toward the episode-start
//     snapshot by factor SourceEMA. Drift then decays geometrically instead
//     of accumulating — the anti-forgetting mechanism for recurring cycles,
//     where a hard reset would discard adaptation the stream is about to
//     need again.
type Policy struct {
	// ResetThreshold fires a hard reset when a batch's mean entropy exceeds
	// the tracked baseline by this factor (e.g. 1.5). 0 disables detection.
	ResetThreshold float64
	// BaselineMomentum is the entropy EMA coefficient (default 0.3).
	BaselineMomentum float64
	// SourceEMA, in (0, 1), pulls BN state toward the episode-start
	// snapshot after every batch. 0 disables regularization.
	SourceEMA float64
}

func (p Policy) withDefaults() Policy {
	if p.BaselineMomentum == 0 {
		p.BaselineMomentum = 0.3
	}
	return p
}

// sourceRegularized is implemented by the adapters that have BatchNorm
// state to pull back toward its episode-start values. No-Adapt has none and
// does not implement it; the policy degrades to detection-only there.
type sourceRegularized interface {
	pullTowardSource(lambda float32)
}

// PolicyAdapter wraps an Adapter with a lifecycle Policy. It is itself an
// Adapter, so every driver (RunStream, RunScenario, robustbench) can score
// a policy like any algorithm. The wrapper is for the serial drivers;
// internal/serve keeps serving bare adapters (its per-stream state swap
// already provides episode isolation).
type PolicyAdapter struct {
	inner Adapter
	cfg   Policy

	baseline float64 // entropy EMA
	seen     int     // batches since (re)start
	resets   int     // detection-triggered hard resets, cumulative
}

// WithPolicy wraps the adapter. The policy's zero value adds pure
// observation (entropy baseline tracking) and changes no behavior.
func WithPolicy(a Adapter, p Policy) *PolicyAdapter {
	return &PolicyAdapter{inner: a, cfg: p.withDefaults()}
}

// Algorithm implements Adapter, reporting the wrapped algorithm.
func (p *PolicyAdapter) Algorithm() Algorithm { return p.inner.Algorithm() }

// Resets returns how many detection-triggered hard resets have fired since
// construction. Episodic Reset calls do not count.
func (p *PolicyAdapter) Resets() int { return p.resets }

// seasonBatches is how many batches of an episode must season the entropy
// baseline before detection may fire: one seeds it, one moves the EMA.
const seasonBatches = 2

// Process implements Adapter: run the wrapped adapter, detect shifts from
// the prediction entropy, and apply the configured recovery.
func (p *PolicyAdapter) Process(x *tensor.Tensor) *tensor.Tensor {
	logits := p.inner.Process(x)
	h, _ := nn.MeanEntropy(logits)
	if p.cfg.ResetThreshold > 0 && p.seen >= seasonBatches && h > p.baseline*p.cfg.ResetThreshold {
		// Shift detected: restart the episode and re-serve the batch from
		// fresh state, so the detecting batch itself gets the recovery.
		// The trace marker attributes the reset to the entropy jump that
		// fired it (observed vs. baseline vs. firing threshold).
		if tr := telemetry.ActiveTracer(); tr != nil {
			tr.Instant("policy", "reset", 0,
				telemetry.Arg{Key: "entropy", Value: h},
				telemetry.Arg{Key: "baseline", Value: p.baseline},
				telemetry.Arg{Key: "threshold", Value: p.baseline * p.cfg.ResetThreshold},
				telemetry.Arg{Key: "algo", Value: p.inner.Algorithm().String()})
		}
		p.inner.Reset()
		p.resets++
		p.seen = 0
		logits = p.inner.Process(x)
		h, _ = nn.MeanEntropy(logits)
	}
	if p.seen == 0 {
		p.baseline = h
	} else {
		p.baseline += p.cfg.BaselineMomentum * (h - p.baseline)
	}
	p.seen++
	if p.cfg.SourceEMA > 0 {
		if r, ok := p.inner.(sourceRegularized); ok {
			r.pullTowardSource(float32(p.cfg.SourceEMA))
		}
	}
	return logits
}

// Reset implements Adapter: restart the episode and the detector. The
// cumulative reset count is preserved (it meters policy firings, not
// episode starts).
func (p *PolicyAdapter) Reset() {
	p.inner.Reset()
	p.baseline = 0
	p.seen = 0
}
