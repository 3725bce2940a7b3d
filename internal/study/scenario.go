package study

import (
	"fmt"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
)

// ScenarioPolicy names one adapter-lifecycle configuration the scenario
// suite scores. Wrap(nil-config) is the bare adapter.
type ScenarioPolicy struct {
	Name   string
	Policy core.Policy
	// Bare skips the PolicyAdapter wrapper entirely (the no-policy column).
	Bare bool
}

// ScenarioPolicies returns the suite's three lifecycle columns: no policy
// (the continual failure mode left to run), hard reset on detected shift,
// and source-EMA regularization.
func ScenarioPolicies() []ScenarioPolicy {
	return []ScenarioPolicy{
		{Name: "none", Bare: true},
		// Threshold 1.2 with a fast-tracking baseline: TENT's entropy
		// collapse means the jump at a shift is measured against a
		// baseline that must keep up (see core.Policy); 1.2 fires on real
		// shifts at repro scale without misfiring inside phases.
		{Name: "reset", Policy: core.Policy{ResetThreshold: 1.2, BaselineMomentum: 0.8}},
		{Name: "ema", Policy: core.Policy{SourceEMA: 0.05}},
	}
}

// ScenarioSuite returns the named shifting-stream cases, one per generator
// family, sized by samples-per-phase. They are the study's standard axis:
// every figure and leaderboard that scores scenarios scores these.
func ScenarioSuite(perPhase int) []data.Scenario {
	return []data.Scenario{
		data.SeverityRamp("fog-ramp", data.Fog, 1, 5, perPhase),
		data.AbruptSwitch("noise-blur-switch",
			[]data.Corruption{data.GaussianNoise, data.DefocusBlur, data.Contrast}, 5, perPhase),
		data.RecurringCycle("weather-cycle",
			[]data.Corruption{data.Fog, data.Snow, data.Brightness}, 4, perPhase, 2),
		data.MixedTraffic("mixed-traffic", 11, 4, perPhase, 4),
	}
}

// ScenarioStudyConfig sizes a scenario study run.
type ScenarioStudyConfig struct {
	Seed int64
	// PerPhase is samples per scenario phase (default 200 — four batches
	// at the default batch size, the minimum dwell time that lets the
	// entropy-jump detector season its baseline inside a phase; at two
	// batches per phase detection is structurally starved).
	PerPhase int
	Batch    int // adaptation batch size (default 50)
	// Adapt configures the adapters. The default is the aggressive
	// continual regime (LR 0.1, two entropy steps per batch): the drift
	// and recovery the suite exists to expose only materialize when the
	// adapter moves fast enough to commit to each phase — TENT's episodic
	// default (1e-3, one step) barely shifts BN state over a 100-sample
	// phase and renders every policy column identical.
	Adapt *core.Config
	// Algorithms defaults to BN-Norm and BN-Opt — the continual adapters
	// whose drift the suite exists to expose (No-Adapt has no state to
	// drift, so it is only interesting as a manual baseline).
	Algorithms []core.Algorithm
	Policies   []ScenarioPolicy
	Scenarios  []data.Scenario
}

func (c ScenarioStudyConfig) withDefaults() ScenarioStudyConfig {
	if c.PerPhase == 0 {
		c.PerPhase = 200
	}
	if c.Batch == 0 {
		c.Batch = 50
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []core.Algorithm{core.BNNorm, core.BNOpt}
	}
	if len(c.Policies) == 0 {
		c.Policies = ScenarioPolicies()
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = ScenarioSuite(c.PerPhase)
	}
	if c.Adapt == nil {
		c.Adapt = &core.Config{LR: 0.1, Steps: 2}
	}
	return c
}

// ScenarioCell is one (scenario, algorithm, policy) evaluation.
type ScenarioCell struct {
	Scenario string
	Algo     core.Algorithm
	Policy   string
	Result   core.ScenarioResult
}

// ScenarioStudy holds the full grid.
type ScenarioStudy struct {
	Cfg   ScenarioStudyConfig
	Cells []ScenarioCell
}

// RunScenarioStudy scores every (scenario × algorithm × policy) cell over
// the model — the continual-TTA counterpart of the paper's Fig.-2 grid.
// Each cell is an independent continual episode over the full scenario
// (the adapter is Reset at the start, never between phases; recovering
// mid-stream is exactly the policies' job).
func RunScenarioStudy(m *models.Model, gen *data.Generator, cfg ScenarioStudyConfig) (*ScenarioStudy, error) {
	cfg = cfg.withDefaults()
	st := &ScenarioStudy{Cfg: cfg}
	for _, sc := range cfg.Scenarios {
		for _, algo := range cfg.Algorithms {
			for _, pol := range cfg.Policies {
				// Each cell adapts a private clone: New() snapshots the
				// model state as the episode's source, so cells must not
				// see each other's drift.
				base, err := core.New(algo, m.Clone(), *cfg.Adapt)
				if err != nil {
					return nil, err
				}
				adapter := base
				if !pol.Bare {
					adapter = core.WithPolicy(base, pol.Policy)
				}
				stream, err := gen.NewScheduledStream(cfg.Seed, sc)
				if err != nil {
					return nil, err
				}
				st.Cells = append(st.Cells, ScenarioCell{
					Scenario: sc.Name, Algo: algo, Policy: pol.Name,
					Result: core.RunScenario(adapter, stream, cfg.Batch),
				})
			}
		}
	}
	return st, nil
}

// String renders the grid as the scenario figure: per scenario, one row per
// (algorithm, policy) with mean error, worst-phase error (the forgetting/
// divergence indicator) and reset count.
func (st *ScenarioStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario study: continual adaptation under shifting streams (batch %d)\n", st.Cfg.Batch)
	last := ""
	for _, cell := range st.Cells {
		if cell.Scenario != last {
			last = cell.Scenario
			fmt.Fprintf(&b, "\n%s\n", cell.Result.Scenario)
			fmt.Fprintf(&b, "  %-9s %-7s %9s %12s %7s  per-phase error\n",
				"algo", "policy", "mean err", "worst phase", "resets")
		}
		var phases []string
		for _, p := range cell.Result.Phases {
			phases = append(phases, fmt.Sprintf("%.0f", 100*p.ErrorRate))
		}
		fmt.Fprintf(&b, "  %-9s %-7s %8.1f%% %11.1f%% %7d  %s\n",
			cell.Algo, cell.Policy, 100*cell.Result.ErrorRate,
			100*cell.Result.WorstPhase(), cell.Result.Resets,
			strings.Join(phases, " "))
	}
	return b.String()
}
