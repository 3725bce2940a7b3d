// Package train implements offline training of the repro-scale models on
// SynCIFAR, standing in for the paper's pre-trained robust checkpoints.
// Two regimes are provided, mirroring Sec. II-A:
//
//   - Robust: AugMix-lite data augmentation (plus an optional
//     input-perturbation step approximating adversarial training), used
//     for the three "robust" models.
//   - Plain: no augmentation, used for the MobileNetV2 comparison, which
//     the paper shows collapses under corruption without robust training.
package train

import (
	"math/rand"

	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/opt"
)

// Regime selects the offline training recipe.
type Regime int

// Training regimes.
const (
	// Plain trains on clean samples only.
	Plain Regime = iota
	// Robust trains with AugMix-lite augmentation and light adversarial
	// input perturbation.
	Robust
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case Plain:
		return "plain"
	case Robust:
		return "robust"
	default:
		return "unknown"
	}
}

// Config controls training.
type Config struct {
	Epochs    int     // passes over the training set (default 4)
	TrainSize int     // training samples per epoch (default 1536)
	BatchSize int     // minibatch size (default 64)
	LR        float64 // Adam learning rate (default 2e-3)
	Regime    Regime
	AdvEps    float32 // adversarial perturbation radius (Robust only; default 0.02)
	Seed      int64
	Quiet     bool
	LogF      func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.TrainSize == 0 {
		c.TrainSize = 1536
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LR == 0 {
		c.LR = 2e-3
	}
	if c.AdvEps == 0 {
		c.AdvEps = 0.02
	}
	return c
}

// Result reports training progress.
type Result struct {
	EpochLoss     []float64
	EpochAccuracy []float64 // training accuracy per epoch
}

// Train fits the model on SynCIFAR under the configured regime. A model
// a BN-Opt adapter once armed still carries its frozen flags, so they are
// cleared first: training needs every gradient, the input's included.
func Train(m *models.Model, gen *data.Generator, cfg Config) Result {
	cfg = cfg.withDefaults()
	nn.Unfreeze(m.Net)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	optim := opt.NewAdam(m.Params(), cfg.LR)
	var res Result

	plane := 3 * data.ImageSize * data.ImageSize
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochLoss, correct, seen := 0.0, 0, 0
		batches := cfg.TrainSize / cfg.BatchSize
		for b := 0; b < batches; b++ {
			x, labels := gen.Batch(rng, cfg.BatchSize)
			if cfg.Regime == Robust {
				for i := 0; i < cfg.BatchSize; i++ {
					img := x.Data[i*plane : (i+1)*plane]
					aug := data.AugMixLite(rng, img, data.ImageSize, data.ImageSize)
					copy(img, aug)
				}
			}
			logits := m.Forward(x, true)
			loss, grad := nn.CrossEntropy(logits, labels)

			if cfg.Regime == Robust {
				// One-step adversarial perturbation (FGSM-style stand-in for
				// the paper's LPIPS adversarial training): perturb the input
				// along the sign of its loss gradient and train on that too.
				optim.ZeroGrad()
				nn.ZeroGrads(m.Net)
				dx := m.Backward(grad)
				adv := x.Clone()
				for i, g := range dx.Data {
					if g > 0 {
						adv.Data[i] += cfg.AdvEps
					} else if g < 0 {
						adv.Data[i] -= cfg.AdvEps
					}
				}
				logits = m.Forward(adv, true)
				loss, grad = nn.CrossEntropy(logits, labels)
			}

			optim.ZeroGrad()
			nn.ZeroGrads(m.Net)
			m.Backward(grad)
			optim.Step()

			epochLoss += loss
			for i, p := range logits.ArgmaxRows() {
				if p == labels[i] {
					correct++
				}
			}
			seen += cfg.BatchSize
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(batches))
		res.EpochAccuracy = append(res.EpochAccuracy, float64(correct)/float64(seen))
		if !cfg.Quiet && cfg.LogF != nil {
			cfg.LogF("epoch %d: loss %.4f acc %.3f", epoch+1,
				res.EpochLoss[epoch], res.EpochAccuracy[epoch])
		}
	}
	return res
}

// Evaluate returns the error rate of the model (eval mode) on n clean
// samples.
func Evaluate(m *models.Model, gen *data.Generator, seed int64, n, batch int) float64 {
	rng := rand.New(rand.NewSource(seed))
	wrong := 0
	for done := 0; done < n; done += batch {
		b := batch
		if n-done < b {
			b = n - done
		}
		x, labels := gen.Batch(rng, b)
		logits := m.Forward(x, false)
		for i, p := range logits.ArgmaxRows() {
			if p != labels[i] {
				wrong++
			}
		}
	}
	return float64(wrong) / float64(n)
}
