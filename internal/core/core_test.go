package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
	"edgetta/internal/train"
)

func tinyModel(seed int64) *models.Model {
	return models.WideResNet402(rand.New(rand.NewSource(seed)), models.ReproScale)
}

func TestAlgorithmStrings(t *testing.T) {
	if NoAdapt.String() != "No-Adapt" || BNNorm.String() != "BN-Norm" || BNOpt.String() != "BN-Opt" {
		t.Fatal("algorithm names do not match the paper")
	}
	if Algorithm(9).String() != "unknown" {
		t.Fatal("unknown algorithm should stringify as unknown")
	}
}

func TestNewReturnsCorrectAdapter(t *testing.T) {
	m := tinyModel(1)
	for _, algo := range Algorithms {
		a, err := New(algo, m, Config{})
		if err != nil {
			t.Fatalf("New(%v): %v", algo, err)
		}
		if a.Algorithm() != algo {
			t.Fatalf("New(%v) returned %v", algo, a.Algorithm())
		}
	}
	if _, err := New(Algorithm(42), m, Config{}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestBNNormArmsBatchStats(t *testing.T) {
	m := tinyModel(2)
	if _, err := New(BNNorm, m, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, bn := range m.BatchNorms() {
		if !bn.UseBatchStats {
			t.Fatalf("BN %s not armed for batch statistics", bn.Name())
		}
	}
	// Constructing NoAdapt afterwards must disarm them.
	if _, err := New(NoAdapt, m, Config{}); err != nil {
		t.Fatal(err)
	}
	for _, bn := range m.BatchNorms() {
		if bn.UseBatchStats {
			t.Fatalf("BN %s still armed under NoAdapt", bn.Name())
		}
	}
}

func TestNoAdaptIsStateless(t *testing.T) {
	m := tinyModel(3)
	a, _ := New(NoAdapt, m, Config{})
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(4, 3, 32, 32)
	x.Randn(rng, 1)
	y1 := a.Process(x)
	y2 := a.Process(x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("NoAdapt must be deterministic and stateless")
		}
	}
}

func TestBNNormShiftsWithDistribution(t *testing.T) {
	m := tinyModel(4)
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(8, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	shifted := x.Clone()
	for i := range shifted.Data {
		shifted.Data[i] = shifted.Data[i]*0.3 + 0.6 // strong covariate shift
	}
	// The shift is affine, so batch renormalization at the first BN should
	// make the network's outputs nearly shift-invariant, while frozen
	// running stats (NoAdapt) pass the full shift through.
	na, _ := New(NoAdapt, m, Config{})
	yClean := na.Process(x).Clone()
	yShift := na.Process(shifted).Clone()
	bn, _ := New(BNNorm, m, Config{})
	yCleanBN := bn.Process(x).Clone()
	yShiftBN := bn.Process(shifted).Clone()
	dNo, dAdapt := 0.0, 0.0
	for i := range yClean.Data {
		dNo += math.Abs(float64(yShift.Data[i] - yClean.Data[i]))
		dAdapt += math.Abs(float64(yShiftBN.Data[i] - yCleanBN.Data[i]))
	}
	if dAdapt >= dNo/2 {
		t.Fatalf("BN-Norm did not counteract the shift: %.3f vs %.3f", dAdapt, dNo)
	}
}

// TestBNNormLogitsIgnoreHistory: BN-Norm normalizes with each batch's own
// statistics, so a batch's logits are the same bits from a fresh adapter,
// after the adapter has seen other corrupted batches, and after a Reset,
// although those batches moved the running statistics. It fails if the
// normalize ever reads the running statistics.
func TestBNNormLogitsIgnoreHistory(t *testing.T) {
	m := tinyModel(13)
	gen := data.NewGenerator(23)
	b, _, _ := gen.NewStream(1, 16, data.Fog, 3).Next(16)
	a, err := New(BNNorm, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := a.Process(b).Clone()
	bn := m.BatchNorms()[0]
	before := append([]float32(nil), bn.RunningMean...)
	s := gen.NewStream(2, 64, data.GaussianNoise, 5)
	for {
		x, _, ok := s.Next(16)
		if !ok {
			break
		}
		a.Process(x)
	}
	moved := false
	for i, v := range bn.RunningMean {
		moved = moved || v != before[i]
	}
	if !moved {
		t.Fatal("the corrupted batches left the running statistics alone; the comparison is vacuous")
	}
	after := a.Process(b).Clone()
	a.Reset()
	reset := a.Process(b)
	for i, v := range fresh.Data {
		if after.Data[i] != v || reset.Data[i] != v {
			t.Fatalf("logit %d: fresh %v, after history %v, after Reset %v", i, v, after.Data[i], reset.Data[i])
		}
	}
}

// TestBNOptPredictsBeforeItsStep pins the first point of TENT's protocol
// (Wang et al., ICLR'21; ROADMAP item 14): BN-Opt predicts each batch
// before it adapts on it. Process's logits are bitwise those of a plain
// batch-statistics Forward of a clone that holds the pre-step γ/β, batch
// after batch — and the step did move γ/β, so the same Forward after it
// gives other logits.
func TestBNOptPredictsBeforeItsStep(t *testing.T) {
	m := tinyModel(11)
	a, _ := New(BNOpt, m, Config{})
	rng := rand.New(rand.NewSource(12))
	for batch := 0; batch < 3; batch++ {
		x := tensor.New(8, 3, 32, 32)
		x.Uniform(rng, 0, 1)
		want := m.Clone().Forward(x, false) // UseBatchStats is part of the copied state
		got := a.Process(x)
		if !bitsEqual(got.Data, want.Data) {
			t.Fatalf("batch %d: Process's logits are not those of the pre-step γ/β", batch)
		}
		if after := m.Clone().Forward(x, false); bitsEqual(after.Data, got.Data) {
			t.Fatalf("batch %d: the step left the logits where they were: nothing was adapted", batch)
		}
	}
}

// TestBNOptNeverReadsRunningStats pins the third point of TENT's protocol
// (ROADMAP item 14): BN-Opt normalizes with the statistics of the batch
// in hand and never with running statistics. With every running mean and
// variance NaN, its logits and γ/β are bitwise those of the same adapter
// over the finite ones, batch after batch.
func TestBNOptNeverReadsRunningStats(t *testing.T) {
	m := tinyModel(13)
	ref := m.Clone()
	for _, bn := range m.BatchNorms() {
		for c := range bn.RunningMean {
			bn.RunningMean[c], bn.RunningVar[c] = float32(math.NaN()), float32(math.NaN())
		}
	}
	a, _ := New(BNOpt, m, Config{})
	b, _ := New(BNOpt, ref, Config{})
	rng := rand.New(rand.NewSource(14))
	for batch := 0; batch < 3; batch++ {
		x := tensor.New(8, 3, 32, 32)
		x.Uniform(rng, 0, 1)
		if got, want := a.Process(x), b.Process(x); !bitsEqual(got.Data, want.Data) {
			t.Fatalf("batch %d: NaN running statistics moved the logits", batch)
		}
		bns, refs := m.BatchNorms(), ref.BatchNorms()
		for i, bn := range bns {
			if !bitsEqual(bn.Gamma.Data, refs[i].Gamma.Data) || !bitsEqual(bn.Beta.Data, refs[i].Beta.Data) {
				t.Fatalf("batch %d: NaN running statistics moved %s's γ/β", batch, bn.Name())
			}
		}
	}
}

// TestBNOptUpdatesOnlyBNParams pins the second point of TENT's protocol
// (ROADMAP item 14): γ/β are BN-Opt's only parameters. A Process leaves
// every other parameter as it was, and does move some γ.
func TestBNOptUpdatesOnlyBNParams(t *testing.T) {
	m := tinyModel(5)
	ref := tinyModel(5) // identical clone by construction seed
	a, _ := New(BNOpt, m, Config{})
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(8, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	a.Process(x)
	if !VerifyOnlyBNAdapted(m.Params(), ref.Params()) {
		t.Fatal("BN-Opt modified non-BN parameters")
	}
	// And it must actually have changed some gamma/beta.
	changed := false
	bnsM, bnsRef := m.BatchNorms(), ref.BatchNorms()
	for i := range bnsM {
		for j := range bnsM[i].Gamma.Data {
			if bnsM[i].Gamma.Data[j] != bnsRef[i].Gamma.Data[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("BN-Opt did not update any gamma")
	}
}

func TestBNOptReducesEntropyOnFixedBatch(t *testing.T) {
	m := tinyModel(6)
	a, _ := New(BNOpt, m, Config{LR: 5e-3})
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(16, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	first, _ := nn.MeanEntropy(a.Process(x))
	var last float64
	for i := 0; i < 10; i++ {
		last, _ = nn.MeanEntropy(a.Process(x))
	}
	if last >= first {
		t.Fatalf("entropy did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestResetRestoresState(t *testing.T) {
	m := tinyModel(7)
	bns := m.BatchNorms()
	g0 := append([]float32(nil), bns[0].Gamma.Data...)
	rm0 := append([]float32(nil), bns[0].RunningMean...)
	a, _ := New(BNOpt, m, Config{LR: 1e-2})
	rng := rand.New(rand.NewSource(5))
	x := tensor.New(8, 3, 32, 32)
	x.Uniform(rng, 0, 1)
	for i := 0; i < 3; i++ {
		a.Process(x)
	}
	a.Reset()
	for j := range g0 {
		if bns[0].Gamma.Data[j] != g0[j] {
			t.Fatal("Reset did not restore gamma")
		}
	}
	for j := range rm0 {
		if bns[0].RunningMean[j] != rm0[j] {
			t.Fatal("Reset did not restore running mean")
		}
	}
	// Reset must also clear Adam state: a fresh Process from identical
	// state must reproduce the first step exactly.
	y1 := a.Process(x).Clone()
	a.Reset()
	y2 := a.Process(x).Clone()
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("Reset did not restore optimizer state")
		}
	}
}

func TestRunStreamCountsSamples(t *testing.T) {
	m := tinyModel(8)
	gen := data.NewGenerator(20)
	a, _ := New(NoAdapt, m, Config{})
	res := RunStream(a, gen.NewStream(1, 120, data.GaussianNoise, 3), 50)
	if res.Samples != 120 || res.Batches != 3 {
		t.Fatalf("stream result %+v", res)
	}
	if res.ErrorRate < 0 || res.ErrorRate > 1 {
		t.Fatalf("error rate %v", res.ErrorRate)
	}
}

// trainedModel is shared by the integration tests below; training even the
// tiny model takes tens of seconds.
var (
	trainedOnce  sync.Once
	trainedTiny  *models.Model
	trainedClean float64
	trainedGen   *data.Generator
)

func getTrained(t *testing.T) (*models.Model, *data.Generator) {
	t.Helper()
	trainedOnce.Do(func() {
		trainedGen = data.NewGenerator(100)
		trainedTiny = tinyModel(42)
		train.Train(trainedTiny, trainedGen, train.Config{
			Regime: train.Plain, Epochs: 4, TrainSize: 1024, BatchSize: 64,
			LR: 3e-3, Seed: 7, Quiet: true,
		})
		trainedClean = train.Evaluate(trainedTiny, trainedGen, 1, 300, 100)
	})
	return trainedTiny, trainedGen
}

func TestTrainedModelLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration skipped in -short")
	}
	_, _ = getTrained(t)
	if trainedClean > 0.5 {
		t.Fatalf("tiny model failed to learn: clean error %.3f", trainedClean)
	}
}

// TestPaperOrderingOnCorruptedStream is the repo's headline integration
// test: on a corrupted stream, BN-Norm must beat No-Adapt, and BN-Opt must
// be at least comparable to BN-Norm (Fig. 2's ordering).
func TestPaperOrderingOnCorruptedStream(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration skipped in -short")
	}
	m, gen := getTrained(t)
	errOf := func(algo Algorithm) float64 {
		a, err := New(algo, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		cs := []data.Corruption{data.Fog, data.Contrast}
		for i, c := range cs {
			total += RunStream(a, gen.NewStream(int64(900+i), 400, c, 5), 50).ErrorRate
		}
		return total / float64(len(cs))
	}
	eNo, eNorm, eOpt := errOf(NoAdapt), errOf(BNNorm), errOf(BNOpt)
	t.Logf("no-adapt %.3f, bn-norm %.3f, bn-opt %.3f", eNo, eNorm, eOpt)
	if eNorm >= eNo-0.02 {
		t.Fatalf("BN-Norm (%.3f) should clearly beat No-Adapt (%.3f)", eNorm, eNo)
	}
	if eOpt > eNorm+0.03 {
		t.Fatalf("BN-Opt (%.3f) should be at least comparable to BN-Norm (%.3f)", eOpt, eNorm)
	}
}

// TestBatchSizeDiminishingReturns checks Fig. 2's batch-size trend: larger
// adaptation batches do not hurt, and the 50→100 gain exceeds 100→200.
func TestBatchSizeDiminishingReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("training integration skipped in -short")
	}
	m, gen := getTrained(t)
	errAt := func(batch int) float64 {
		a, _ := New(BNNorm, m, Config{})
		total := 0.0
		cs := []data.Corruption{data.Fog, data.Contrast}
		for i, c := range cs {
			total += RunStream(a, gen.NewStream(int64(1200+i), 400, c, 5), batch).ErrorRate
		}
		return total / float64(len(cs))
	}
	e50, e200 := errAt(50), errAt(200)
	t.Logf("err@50 %.3f err@200 %.3f", e50, e200)
	if e200 > e50+0.05 {
		t.Fatalf("larger adaptation batches should not hurt: %.3f@50 vs %.3f@200", e50, e200)
	}
}

func TestVerifyOnlyBNAdapted(t *testing.T) {
	a, b := tinyModel(9), tinyModel(9)
	if !VerifyOnlyBNAdapted(a.Params(), b.Params()) {
		t.Fatal("identical models must verify")
	}
	// Perturb a conv weight: must fail.
	for _, p := range a.Params() {
		if p.Name == "conv1.weight" {
			p.Data[0] += 1
		}
	}
	if VerifyOnlyBNAdapted(a.Params(), b.Params()) {
		t.Fatal("conv perturbation must be detected")
	}
}
