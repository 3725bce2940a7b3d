package study

import (
	"fmt"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/data"
)

// ScenarioPolicy names one adapter-lifecycle configuration the scenario
// grid scores. A nil Policy is the bare adapter (the no-policy column).
type ScenarioPolicy struct {
	Name   string
	Policy *core.Policy
}

// ScenarioPolicies returns the grid's three lifecycle columns: no policy
// (the continual failure mode left to run), hard reset on detected shift,
// and source-EMA regularization.
func ScenarioPolicies() []ScenarioPolicy {
	return []ScenarioPolicy{
		{Name: "none"},
		// Threshold 1.2 with a fast-tracking baseline: TENT's entropy
		// collapse means the jump at a shift is measured against a
		// baseline that must keep up (see core.Policy); 1.2 fires on real
		// shifts at repro scale without misfiring inside phases.
		{Name: "reset", Policy: &core.Policy{ResetThreshold: 1.2, BaselineMomentum: 0.8}},
		{Name: "ema", Policy: &core.Policy{SourceEMA: 0.05}},
	}
}

// ScenarioSuite returns the named shifting-stream cases, one per generator
// family. They are the study's standard axis: every figure that scores
// scenarios scores these.
func ScenarioSuite() []data.Scenario {
	// 200 samples per phase: four batches at batch 50, the minimum dwell
	// time that lets the entropy-jump detector season its baseline inside a
	// phase (at two batches per phase detection is structurally starved).
	const perPhase = 200
	return []data.Scenario{
		data.SeverityRamp("fog-ramp", data.Fog, 1, 5, perPhase),
		data.AbruptSwitch("noise-blur-switch",
			[]data.Corruption{data.GaussianNoise, data.DefocusBlur, data.Contrast}, 5, perPhase),
		data.RecurringCycle("weather-cycle",
			[]data.Corruption{data.Fog, data.Snow, data.Brightness}, 4, perPhase, 2),
		data.MixedTraffic("mixed-traffic", 11, 4, perPhase, 4),
	}
}

// scenarioAdapt is the aggressive continual regime (LR 0.1, two entropy
// steps per batch): the drift and recovery the grid exists to expose only
// materialize when the adapter moves fast enough to commit to each phase —
// TENT's episodic default (1e-3, one step) barely shifts BN state over a
// 100-sample phase and renders every policy column identical.
var scenarioAdapt = core.Config{LR: 0.1, Steps: 2}

// ScenarioCells lists the continual-TTA counterpart of the paper's Fig.-2
// grid: every scenario × BN-Norm/BN-Opt × lifecycle policy, at batch 50,
// each cell an independent continual episode over the full scenario (the
// adapter is Reset at the start, never between phases; recovering
// mid-stream is exactly the policies' job). No-Adapt has no state to
// drift, so it is left out.
func ScenarioCells(seed int64, scenarios []data.Scenario) []Cell {
	var cells []Cell
	for i := range scenarios {
		for _, algo := range []core.Algorithm{core.BNNorm, core.BNOpt} {
			for _, pol := range ScenarioPolicies() {
				cells = append(cells, Cell{Algo: algo, Adapt: scenarioAdapt, Policy: pol,
					Batch: Batches[0], Seed: seed, Scenario: &scenarios[i]})
			}
		}
	}
	return cells
}

// FormatScenarios renders a ScenarioCells grid as the scenario figure: per
// scenario, one row per (algorithm, policy) with mean error, worst-phase
// error (the forgetting/divergence indicator) and reset count.
func FormatScenarios(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario study: continual adaptation under shifting streams (batch %d)\n", Batches[0])
	last := ""
	for _, r := range rs {
		if r.Run.Scenario.Name != last {
			last = r.Run.Scenario.Name
			fmt.Fprintf(&b, "\n%s\n", r.Run.Scenario)
			fmt.Fprintf(&b, "  %-9s %-7s %9s %12s %7s  per-phase error\n",
				"algo", "policy", "mean err", "worst phase", "resets")
		}
		var phases []string
		for _, p := range r.Run.Phases {
			phases = append(phases, fmt.Sprintf("%.0f", 100*p.ErrorRate))
		}
		fmt.Fprintf(&b, "  %-9s %-7s %8.1f%% %11.1f%% %7d  %s\n",
			r.Algo, r.Policy.Name, 100*r.Run.ErrorRate,
			100*r.Run.WorstPhase(), r.Run.Resets,
			strings.Join(phases, " "))
	}
	return b.String()
}
