package study

import (
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
)

func TestScenarioSuiteCoversAllGenerators(t *testing.T) {
	suite := ScenarioSuite()
	if len(suite) != 4 {
		t.Fatalf("suite has %d scenarios, want 4", len(suite))
	}
	for _, sc := range suite {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if sc.Total() == 0 {
			t.Errorf("%s: empty scenario", sc.Name)
		}
	}
	// The four cases must be structurally distinct: a ramp (severity varies,
	// corruption fixed), a switch (corruption varies), a cycle (phases
	// repeat), mixed traffic (phases carry mixes).
	ramp, sw, cyc, mix := suite[0], suite[1], suite[2], suite[3]
	if ramp.Phases[0].Severity == ramp.Phases[len(ramp.Phases)-1].Severity {
		t.Error("ramp: severity does not change")
	}
	if sw.Phases[0].Corruption == sw.Phases[1].Corruption {
		t.Error("switch: corruption does not change")
	}
	if cyc.Phases[0].Corruption != cyc.Phases[len(cyc.Phases)/2].Corruption {
		t.Error("cycle: second cycle does not repeat the first")
	}
	if len(mix.Phases[0].Mix) < 2 {
		t.Error("mixed traffic: phase 0 has no mix")
	}
}

func TestRunScenarioStudyGrid(t *testing.T) {
	gen := data.NewGenerator(42)
	scenarios := []data.Scenario{
		data.AbruptSwitch("mini-switch", []data.Corruption{data.Fog, data.GaussianNoise}, 3, 50),
	}
	cells := ScenarioCells(5, scenarios)
	// The grid: 2 algorithms × 3 policies over the 1 scenario.
	if want := 2 * 3; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	rs, err := Run(reproModel(7), gen, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Adapt != (core.Config{LR: 0.1, Steps: 2}) || r.Seed != 5 || r.Batch != 50 {
			t.Errorf("%s/%s: cell %+v", r.Algo, r.Policy.Name, r.Cell)
		}
		if r.Run.Samples != 100 {
			t.Errorf("%s/%s: %d samples, want 100", r.Algo, r.Policy.Name, r.Run.Samples)
		}
		if len(r.Run.Phases) != 2 {
			t.Errorf("%s: %d phases, want 2", r.Run.Scenario.Name, len(r.Run.Phases))
		}
		for _, p := range r.Run.Phases {
			if p.Samples != 50 {
				t.Errorf("%s/%s: phase %s has %d samples, want 50",
					r.Algo, r.Policy.Name, p.Phase.Label(), p.Samples)
			}
		}
		if r.Policy.Policy == nil && r.Run.Resets != 0 {
			t.Errorf("bare adapter reported %d resets", r.Run.Resets)
		}
	}
	out := FormatScenarios(rs)
	for _, want := range []string{"mini-switch", "BN-Norm", "BN-Opt", "reset", "ema", "worst phase"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}

func TestScenarioPoliciesDistinct(t *testing.T) {
	pols := ScenarioPolicies()
	if len(pols) != 3 {
		t.Fatalf("got %d policies, want 3", len(pols))
	}
	var bare, reset, ema bool
	for _, p := range pols {
		switch {
		case p.Policy == nil:
			bare = true
		case p.Policy.ResetThreshold > 0:
			reset = true
		case p.Policy.SourceEMA > 0:
			ema = true
		}
	}
	if !bare || !reset || !ema {
		t.Fatalf("policy suite must cover bare/reset/ema, got %+v", pols)
	}
	// The wrapper must report the wrapped algorithm so tables label rows
	// by algorithm, not by the wrapper type.
	a, err := core.New(core.BNNorm, reproModel(9), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.WithPolicy(a, *pols[1].Policy).Algorithm(); got != core.BNNorm {
		t.Fatalf("wrapped algorithm = %v, want BN-Norm", got)
	}
}
