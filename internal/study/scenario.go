package study

import (
	"fmt"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/data"
)

// ScenarioSuite returns the named shifting-stream cases, one per generator
// family. They are the study's standard axis: every figure that scores
// scenarios scores these.
func ScenarioSuite() []data.Scenario {
	// 200 samples per phase: four batches at batch 50, so each phase's
	// error averages over several adaptation steps, not just the batch
	// that meets the shift.
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

// ScenarioCells lists the continual-TTA counterpart of the paper's Fig.-2
// grid: every scenario × algorithm at the paper's adapter settings, batch
// 50, each cell an independent continual episode over the full scenario
// (the adapter is Reset at the start, never between phases). No-Adapt is
// the reference row.
func ScenarioCells(seed int64, scenarios []data.Scenario) []Cell {
	var cells []Cell
	for i := range scenarios {
		for _, algo := range core.Algorithms {
			cells = append(cells, Cell{Algo: algo, Batch: Batches[0], Seed: seed, Scenario: &scenarios[i]})
		}
	}
	return cells
}

// FormatScenarios renders a ScenarioCells grid as the scenario figure: per
// scenario, one row per algorithm with mean error, worst-phase error (the
// forgetting/divergence indicator) and the per-phase errors.
func FormatScenarios(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario study: continual adaptation under shifting streams (batch %d)\n", Batches[0])
	last := ""
	for _, r := range rs {
		if r.Run.Scenario.Name != last {
			last = r.Run.Scenario.Name
			fmt.Fprintf(&b, "\n%s\n", r.Run.Scenario)
			fmt.Fprintf(&b, "  %-9s %9s %12s  per-phase error\n", "algo", "mean err", "worst phase")
		}
		var phases []string
		for _, p := range r.Run.Phases {
			phases = append(phases, fmt.Sprintf("%.0f", 100*p.ErrorRate))
		}
		fmt.Fprintf(&b, "  %-9s %8.1f%% %11.1f%%  %s\n",
			r.Algo, 100*r.Run.ErrorRate, 100*r.Run.WorstPhase(), strings.Join(phases, " "))
	}
	return b.String()
}
