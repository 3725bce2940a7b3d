package study

import (
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
)

func TestScenarioSuiteCoversAllGenerators(t *testing.T) {
	suite := ScenarioSuite(40)
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
	m := models.WideResNet402(rand.New(rand.NewSource(7)), models.ReproScale)
	cfg := ScenarioStudyConfig{
		Seed:  5,
		Batch: 20,
		Scenarios: []data.Scenario{
			data.AbruptSwitch("mini-switch", []data.Corruption{data.Fog, data.GaussianNoise}, 3, 40),
		},
	}
	st, err := RunScenarioStudy(m, gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Default grid: 2 algorithms × 3 policies over the 1 scenario.
	if want := 2 * 3; len(st.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(st.Cells), want)
	}
	for _, cell := range st.Cells {
		r := cell.Result
		if r.Samples != 80 {
			t.Errorf("%s/%s/%s: %d samples, want 80", cell.Scenario, cell.Algo, cell.Policy, r.Samples)
		}
		if len(r.Phases) != 2 {
			t.Errorf("%s: %d phases, want 2", cell.Scenario, len(r.Phases))
		}
		for _, p := range r.Phases {
			if p.Samples != 40 {
				t.Errorf("%s/%s: phase %s has %d samples, want 40",
					cell.Algo, cell.Policy, p.Phase.Label(), p.Samples)
			}
		}
		if cell.Policy == "none" && r.Resets != 0 {
			t.Errorf("bare adapter reported %d resets", r.Resets)
		}
	}
	out := st.String()
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
		case p.Bare:
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
	a, err := core.New(core.BNNorm, microForSweep(9), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := core.WithPolicy(a, pols[1].Policy).Algorithm(); got != core.BNNorm {
		t.Fatalf("wrapped algorithm = %v, want BN-Norm", got)
	}
}
