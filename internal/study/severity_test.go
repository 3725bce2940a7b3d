package study

import (
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
)

// reproModel is an untrained repro-scale model: the runner clones every
// cell's model by rebuilding it, so a test model must come from a builder.
func reproModel(seed int64) *models.Model {
	return models.WideResNet402(rand.New(rand.NewSource(seed)), models.ReproScale)
}

func TestSeveritySweepStructure(t *testing.T) {
	gen := data.NewGenerator(30)
	cs := []data.Corruption{data.GaussianNoise, data.Fog}
	cells, err := SeverityCells(1, 60, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*data.MaxSeverity {
		t.Fatalf("expected %d cells, got %d", 2*data.MaxSeverity, len(cells))
	}
	for i, c := range cells {
		s := i%data.MaxSeverity + 1
		if c.Algo != core.BNNorm || c.Batch != 50 || c.Severity != s || c.Corruption != cs[i/data.MaxSeverity] ||
			c.Seed != 1+int64(100*(i/data.MaxSeverity)+s) || c.Samples != 60 {
			t.Fatalf("cell %d = %+v", i, c)
		}
	}
	rs, err := Run(reproModel(1), gen, cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if e := r.Run.ErrorRate; e < 0 || e > 1 || r.Run.Samples != 60 {
			t.Fatalf("%s/%d: error %v over %d samples", r.Corruption, r.Severity, e, r.Run.Samples)
		}
	}
	out := FormatSeverities(rs)
	if !strings.Contains(out, "gaussian_noise") || !strings.Contains(out, "mean") ||
		strings.Count(out, "\n") != 4 {
		t.Fatalf("rendering incomplete:\n%s", out)
	}
}

func TestSeveritySweepValidation(t *testing.T) {
	if _, err := SeverityCells(1, 60, nil); err == nil {
		t.Fatal("empty corruption list must error")
	}
	if _, err := SeverityCells(1, 10, []data.Corruption{data.Fog}); err == nil {
		t.Fatal("samples < batch must error")
	}
}
