// Package core implements the paper's subject: test-time unsupervised DNN
// adaptation. Three algorithms are provided, matching Sec. II and III-D:
//
//   - NoAdapt: plain inference with frozen running BN statistics.
//   - BNNorm (Nado et al. 2020 / Schneider et al. 2020): recompute the BN
//     normalization statistics from the incoming unlabeled test batch.
//   - BNOpt (TENT, Wang et al. 2021): additionally optimize the BN affine
//     transformation parameters (γ, β) by minimizing the Shannon entropy of
//     the model's predictions with one Adam step per batch.
//
// All three present the same Adapter interface so the measurement harness
// can treat them uniformly, and a streaming driver runs the paper's online
// protocol: inference followed by adaptation at every batch of a corrupted
// test stream.
//
// What BN-Norm and BN-Opt mutate is defined once, as a layout (state.go):
// the BatchNorm statistics and affine parameters and, for BN-Opt, Adam's
// moments and step count — under 1 % of the parameters. An AdapterState is
// one vector over that layout; capturing, restoring, resetting, the
// numeric-health scan and the checkpoint's named tensors (stateblob.go) are
// all walks of it.
package core

import (
	"fmt"
	"strings"

	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/opt"
	"edgetta/internal/tensor"
)

// Algorithm identifies an adaptation strategy.
type Algorithm int

// The three strategies of the study.
const (
	NoAdapt Algorithm = iota
	BNNorm
	BNOpt
)

// Algorithms lists the strategies in the paper's presentation order.
var Algorithms = []Algorithm{NoAdapt, BNNorm, BNOpt}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case NoAdapt:
		return "No-Adapt"
	case BNNorm:
		return "BN-Norm"
	case BNOpt:
		return "BN-Opt"
	default:
		return "unknown"
	}
}

// ParseAlgorithm resolves an algorithm name. It accepts the paper's
// spelling (the String form: "No-Adapt", "BN-Norm", "BN-Opt") and the
// flag-friendly lowercase variants ("noadapt", "bnnorm", "bnopt"),
// case-insensitively — the single parser behind every CLI flag and the
// serving wire protocol.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.ReplaceAll(s, "-", "")) {
	case "noadapt":
		return NoAdapt, nil
	case "bnnorm":
		return BNNorm, nil
	case "bnopt":
		return BNOpt, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want No-Adapt, BN-Norm or BN-Opt; case and hyphens are ignored)", s)
}

// Config tunes the adaptation algorithms.
type Config struct {
	// LR is BN-Opt's Adam learning rate (TENT's default 1e-3 if zero).
	LR float64
	// Steps is the number of optimization steps BN-Opt takes per batch
	// (the paper uses a single backpropagation pass; default 1).
	Steps int
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Steps == 0 {
		c.Steps = 1
	}
	return c
}

// Adapter processes test batches, adapting the model according to its
// algorithm, and reports prediction logits for each batch.
type Adapter interface {
	// Algorithm identifies the strategy.
	Algorithm() Algorithm
	// Process runs inference (plus any adaptation) on one unlabeled batch
	// and returns the logits used for prediction.
	Process(x *tensor.Tensor) *tensor.Tensor
	// Reset restores the model and optimizer state captured at
	// construction, so a fresh episode can start (the paper adapts each
	// corruption stream independently).
	Reset()
}

// New constructs the adapter for the given algorithm over the model.
func New(algo Algorithm, m *models.Model, cfg Config) (Adapter, error) {
	cfg = cfg.withDefaults()
	switch algo {
	case NoAdapt:
		return newNoAdapt(m), nil
	case BNNorm:
		return newBNNorm(m), nil
	case BNOpt:
		return newBNOpt(m, cfg), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %d", algo)
}

// noAdaptAdapter is the paper's baseline: eval-mode inference only.
type noAdaptAdapter struct {
	m *models.Model
}

func newNoAdapt(m *models.Model) *noAdaptAdapter {
	for _, bn := range m.BatchNorms() {
		bn.UseBatchStats = false
	}
	return &noAdaptAdapter{m: m}
}

func (a *noAdaptAdapter) Algorithm() Algorithm { return NoAdapt }

func (a *noAdaptAdapter) Process(x *tensor.Tensor) *tensor.Tensor {
	return a.m.Infer(x)
}

func (a *noAdaptAdapter) Reset() {}

// bnNormAdapter recomputes BN statistics from each test batch: the model
// runs with batch statistics (PyTorch train()-mode BN), so normalization
// instantly tracks the corrupted input distribution. Running statistics
// also accumulate across the stream, and no prediction reads them.
type bnNormAdapter struct{ tracked }

func newBNNorm(m *models.Model) *bnNormAdapter {
	return &bnNormAdapter{track(m, nil)}
}

func (a *bnNormAdapter) Algorithm() Algorithm { return BNNorm }

func (a *bnNormAdapter) Process(x *tensor.Tensor) *tensor.Tensor {
	return a.m.Infer(x) // UseBatchStats makes BN re-estimate
}

// bnOptAdapter is TENT: batch-statistics normalization plus one Adam step
// per batch on the BN affine parameters, minimizing prediction entropy.
// Only γ/β receive updates (<1% of model parameters), but computing their
// gradients requires a backpropagation pass through every layer — the
// cost the paper identifies as the key bottleneck on edge CPUs. As in
// TENT's PyTorch setting, every other parameter is frozen
// (nn.FreezeExceptBN), so that pass computes input gradients only: no
// conv/linear weight gradient is ever formed.
type bnOptAdapter struct {
	tracked
	steps int
}

func newBNOpt(m *models.Model, cfg Config) *bnOptAdapter {
	nn.FreezeExceptBN(m.Net)
	var params []*nn.Param
	for _, bn := range m.BatchNorms() {
		params = append(params, bn.Gamma, bn.Beta)
	}
	return &bnOptAdapter{tracked: track(m, opt.NewAdam(params, cfg.LR)), steps: cfg.Steps}
}

func (a *bnOptAdapter) Algorithm() Algorithm { return BNOpt }

func (a *bnOptAdapter) Process(x *tensor.Tensor) *tensor.Tensor {
	var logits *tensor.Tensor
	for step := 0; step < a.steps; step++ {
		logits = a.m.Forward(x, false) // batch statistics via UseBatchStats
		_, grad := nn.MeanEntropy(logits)
		a.optim.ZeroGrad()
		a.m.Backward(grad) // γ/β grads only: everything else is frozen
		a.optim.Step()
	}
	return logits
}
