package train

import (
	"math/rand"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// tinyNet is a micro CNN (two strided convolutions) so the training tests
// run in seconds; Train only needs the models.Model wrapper.
func tinyNet(seed int64) *models.Model {
	rng := rand.New(rand.NewSource(seed))
	net := nn.NewSequential("micro",
		nn.NewConv2d("c1", rng, 3, 8, 3, 2, 1, 1),
		nn.NewBatchNorm2d("bn1", 8, tensor.Rect{On: true}),
		nn.NewConv2d("c2", rng, 8, 16, 3, 2, 1, 1),
		nn.NewBatchNorm2d("bn2", 16, tensor.Rect{On: true}),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", rng, 16, 10),
	)
	return &models.Model{Name: "micro", Tag: "MICRO", Net: net, Classes: 10, InC: 3, InHW: 32}
}

func TestTrainReducesLoss(t *testing.T) {
	m := tinyNet(1)
	gen := data.NewGenerator(50)
	res := Train(m, gen, Config{Regime: Plain, Epochs: 3, TrainSize: 256, BatchSize: 32, Seed: 1, Quiet: true})
	if len(res.EpochLoss) != 3 {
		t.Fatalf("expected 3 epoch losses, got %d", len(res.EpochLoss))
	}
	if res.EpochLoss[2] >= res.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v", res.EpochLoss)
	}
	if res.EpochAccuracy[2] <= res.EpochAccuracy[0] {
		t.Fatalf("accuracy did not increase: %v", res.EpochAccuracy)
	}
}

func TestRobustRegimeRuns(t *testing.T) {
	m := tinyNet(2)
	gen := data.NewGenerator(51)
	res := Train(m, gen, Config{Regime: Robust, Epochs: 1, TrainSize: 128, BatchSize: 32, Seed: 2, Quiet: true})
	if len(res.EpochLoss) != 1 || res.EpochLoss[0] <= 0 {
		t.Fatalf("robust training produced no loss: %v", res.EpochLoss)
	}
}

// TestFineTuneAfterBNOptUpdatesWeights: a BN-Opt adapter freezes every
// non-BN parameter of the model it is handed, and examples hand it the
// model itself, not a clone. Training that model afterwards must still
// learn conv and linear weights — and, in the Robust regime, still get the
// input gradient its adversarial step perturbs along.
func TestFineTuneAfterBNOptUpdatesWeights(t *testing.T) {
	m := tinyNet(4)
	gen := data.NewGenerator(53)
	a, err := core.New(core.BNOpt, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := gen.Batch(rand.New(rand.NewSource(5)), 16)
	a.Process(x)
	before := map[string][]float32{}
	for _, p := range m.Params() {
		if !p.Frozen && !strings.HasSuffix(p.Name, ".gamma") && !strings.HasSuffix(p.Name, ".beta") {
			t.Fatalf("%s not frozen by the BN-Opt adapter: the test would prove nothing", p.Name)
		}
		before[p.Name] = append([]float32(nil), p.Data...)
	}
	Train(m, gen, Config{Regime: Robust, Epochs: 1, TrainSize: 64, BatchSize: 32, Seed: 4, Quiet: true})
	for _, p := range m.Params() {
		changed := false
		for i, v := range p.Data {
			if v != before[p.Name][i] {
				changed = true
				break
			}
		}
		if !changed {
			t.Errorf("%s did not move during fine-tuning after BN-Opt", p.Name)
		}
	}
}

func TestEvaluateBounds(t *testing.T) {
	m := tinyNet(3)
	gen := data.NewGenerator(52)
	e := Evaluate(m, gen, 1, 100, 32)
	if e < 0 || e > 1 {
		t.Fatalf("error rate %v outside [0,1]", e)
	}
	// An untrained model should be near chance (90% error for 10 classes).
	if e < 0.5 {
		t.Fatalf("untrained model suspiciously good: %v", e)
	}
}

func TestLogFReceivesProgress(t *testing.T) {
	m := tinyNet(4)
	gen := data.NewGenerator(53)
	var lines []string
	Train(m, gen, Config{Regime: Plain, Epochs: 2, TrainSize: 64, BatchSize: 32, Seed: 3,
		LogF: func(format string, args ...any) {
			lines = append(lines, format)
		}})
	if len(lines) != 2 {
		t.Fatalf("expected 2 log lines, got %d", len(lines))
	}
	if !strings.Contains(lines[0], "epoch") {
		t.Fatalf("unexpected log format %q", lines[0])
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Epochs != 4 || cfg.TrainSize != 1536 || cfg.BatchSize != 64 || cfg.LR != 2e-3 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}

func TestRegimeString(t *testing.T) {
	if Plain.String() != "plain" || Robust.String() != "robust" || Regime(9).String() != "unknown" {
		t.Fatal("regime names wrong")
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	run := func() float32 {
		m := tinyNet(7)
		gen := data.NewGenerator(54)
		Train(m, gen, Config{Regime: Plain, Epochs: 1, TrainSize: 64, BatchSize: 32, Seed: 5, Quiet: true})
		return m.Params()[0].Data[0]
	}
	if run() != run() {
		t.Skip("training uses parallel float reduction; exact determinism not guaranteed on this host")
	}
}
