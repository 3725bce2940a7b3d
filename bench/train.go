package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/serialize"
	"edgetta/internal/train"
)

// trainConfig is the pinned recipe behind the committed weights: the
// quickstart example's robust training. Training is bit-identical at any
// pool width, so -train reproduces the committed files exactly.
var trainConfig = train.Config{Regime: train.Robust, Epochs: 4, TrainSize: 1536, Seed: 1, Quiet: true}

// trainWeights retrains both benchmark models and rewrites their weights
// under dir, printing each model's clean test error.
func trainWeights(dir string, log io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gen := data.NewGenerator(datasetSeed)
	for _, tag := range []string{"WRN-AM", "RXT-AM"} {
		m, err := models.ByTag(tag, rand.New(rand.NewSource(1)), models.ReproScale)
		if err != nil {
			return err
		}
		train.Train(m, gen, trainConfig)
		path := weightsFile(dir, tag)
		if err := serialize.SaveFile(path, m); err != nil {
			return err
		}
		fmt.Fprintf(log, "%s: clean test error %.2f %% over 1000 images, wrote %s\n",
			tag, 100*train.Evaluate(m, gen, 9, 1000, 100), path)
	}
	return nil
}
