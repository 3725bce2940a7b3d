package core

import (
	"math"
	"strings"
	"testing"

	"edgetta/internal/data"
)

func TestRunScenarioBookkeeping(t *testing.T) {
	m := tinyModel(11)
	gen := data.NewGenerator(21)
	sc := data.Scenario{Name: "book", Phases: []data.Phase{
		{Corruption: data.Fog, Severity: 2, Length: 30},
		{Corruption: data.GaussianNoise, Severity: 4, Length: 25},
		{Clean: true, Length: 20},
	}}
	s, err := gen.NewScheduledStream(5, sc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := New(NoAdapt, m, Config{})
	res := RunScenario(a, s, 16) // batches straddle both phase boundaries
	if res.Samples != 75 || res.Batches != 5 {
		t.Fatalf("samples %d batches %d, want 75/5", res.Samples, res.Batches)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("%d phase results, want 3", len(res.Phases))
	}
	correct := 0
	for i, p := range res.Phases {
		if p.Samples != sc.Phases[i].Length {
			t.Fatalf("phase %d: %d samples, want %d", i, p.Samples, sc.Phases[i].Length)
		}
		if want := 1 - float64(p.Correct)/float64(p.Samples); math.Abs(p.ErrorRate-want) > 1e-12 {
			t.Fatalf("phase %d error %v inconsistent with counts", i, p.ErrorRate)
		}
		if p.ErrorRate > res.WorstPhase() {
			t.Fatalf("phase %d error %v exceeds WorstPhase %v", i, p.ErrorRate, res.WorstPhase())
		}
		correct += p.Correct
	}
	if correct != res.Correct {
		t.Fatalf("phase corrects sum to %d, stream says %d", correct, res.Correct)
	}
	out := res.String()
	for _, want := range []string{"book", "fog/2", "gaussian_noise/4", "clean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering lacks %q: %s", want, out)
		}
	}
}
