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
	// The grid: 3 algorithms over the 1 scenario.
	if want := 3; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	rs, err := Run(reproModel(7), gen, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Adapt != (core.Config{}) || r.Seed != 5 || r.Batch != 50 {
			t.Errorf("%s: cell %+v", r.Algo, r.Cell)
		}
		if r.Run.Samples != 100 {
			t.Errorf("%s: %d samples, want 100", r.Algo, r.Run.Samples)
		}
		if len(r.Run.Phases) != 2 {
			t.Errorf("%s: %d phases, want 2", r.Run.Scenario.Name, len(r.Run.Phases))
		}
		for _, p := range r.Run.Phases {
			if p.Samples != 50 {
				t.Errorf("%s: phase %s has %d samples, want 50", r.Algo, p.Phase.Label(), p.Samples)
			}
		}
	}
	out := FormatScenarios(rs)
	for _, want := range []string{"mini-switch", "No-Adapt", "BN-Norm", "BN-Opt", "worst phase"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}
