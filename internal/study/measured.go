package study

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/serialize"
	"edgetta/internal/train"
)

// Severity is the corruption severity of the paper's accuracy experiment.
const Severity = 5

// MeasuredConfig sizes the real (repro-scale) accuracy experiment. Its batch
// sizes and severity are the paper's: Batches and Severity.
type MeasuredConfig struct {
	Seed        int64
	Epochs      int               // training epochs (default 4)
	TrainSize   int               // samples per epoch (default 1536)
	StreamSize  int               // test samples per corruption (default 600; paper: 10000)
	Corruptions []data.Corruption // default: the first 5 of data.AllCorruptions (paper: all 15)
	// CheckpointDir, when set, caches trained weights in a file named by
	// tag, seed, epochs and train size, reused by runs with the same four.
	CheckpointDir string
	LogF          func(format string, args ...any)
}

func (c MeasuredConfig) withDefaults() MeasuredConfig {
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.TrainSize == 0 {
		c.TrainSize = 1536
	}
	if c.StreamSize == 0 {
		c.StreamSize = 600
	}
	if len(c.Corruptions) == 0 {
		c.Corruptions = data.AllCorruptions[:5]
	}
	if c.LogF == nil {
		c.LogF = func(string, ...any) {}
	}
	return c
}

// TrainedModel trains (or loads from the checkpoint cache) a repro-scale
// model: robust regime for the ResNet family, plain for MobileNetV2, as in
// the paper. The generator it returns draws from the same class templates
// the model was trained on, so every measured experiment scores on it.
func TrainedModel(tag string, cfg MeasuredConfig) (*models.Model, *data.Generator, error) {
	cfg = cfg.withDefaults()
	m, err := models.ByTag(tag, rand.New(rand.NewSource(cfg.Seed)), models.ReproScale)
	if err != nil {
		return nil, nil, err
	}
	gen := data.NewGenerator(cfg.Seed + 1000)
	regime := train.Robust
	if tag == "MBV2" {
		regime = train.Plain // the paper's MobileNet is not robust-trained
	}
	ckpt := ""
	if cfg.CheckpointDir != "" {
		ckpt = filepath.Join(cfg.CheckpointDir,
			fmt.Sprintf("%s-seed%d-e%d-n%d.ckpt", tag, cfg.Seed, cfg.Epochs, cfg.TrainSize))
	}
	if ckpt != "" && serialize.LoadFile(ckpt, m) == nil {
		cfg.LogF("loaded cached checkpoint %s", ckpt)
	} else {
		cfg.LogF("training %s (repro scale, %v regime)...", tag, regime)
		train.Train(m, gen, train.Config{
			Regime: regime, Epochs: cfg.Epochs, TrainSize: cfg.TrainSize,
			Seed: cfg.Seed, Quiet: true,
		})
		if ckpt != "" {
			if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
				cfg.LogF("warning: could not create checkpoint dir: %v", err)
			} else if err := serialize.SaveFile(ckpt, m); err != nil {
				cfg.LogF("warning: could not save checkpoint: %v", err)
			}
		}
	}
	return m, gen, nil
}

// MeasuredCells lists one model's measured grid: for every algorithm, the
// Fig.-2 streams at each of the paper's batch sizes, then one adapted clean
// stream (seed Seed) at batch 50 — the leaderboard's clean column.
// Corruption i draws stream seed Seed+1+i at every batch size, so, as in
// the paper, each batch size scores the same images.
func MeasuredCells(cfg MeasuredConfig) []Cell {
	cfg = cfg.withDefaults()
	var cells []Cell
	for _, algo := range core.Algorithms {
		for _, batch := range Batches {
			for i, c := range cfg.Corruptions {
				cells = append(cells, Cell{Algo: algo, Batch: batch, Seed: cfg.Seed + int64(1+i),
					Corruption: c, Severity: Severity, Samples: cfg.StreamSize})
			}
		}
		cells = append(cells, Cell{Algo: algo, Batch: Batches[0], Seed: cfg.Seed, Samples: cfg.StreamSize})
	}
	return cells
}

// MeasuredResult holds one model's measured cells.
type MeasuredResult struct {
	ModelTag string
	CleanErr float64  // eval-mode clean error (%), before any adaptation
	Results  []Result // in MeasuredCells order
}

// RunMeasured scores a trained model on its MeasuredCells — the
// real-experiment counterpart of Fig. 2.
func RunMeasured(m *models.Model, gen *data.Generator, cfg MeasuredConfig) (*MeasuredResult, error) {
	cfg = cfg.withDefaults()
	res := &MeasuredResult{ModelTag: m.Tag, CleanErr: train.Evaluate(m, gen, cfg.Seed+1, 500, 100) * 100}
	cfg.LogF("clean error: %.2f%%", res.CleanErr)
	rs, err := Run(m, gen, MeasuredCells(cfg))
	if err != nil {
		return nil, err
	}
	res.Results = rs
	return res, nil
}

// corrupted returns the algorithm's corrupted streams at one batch size, in
// corruption order.
func (r *MeasuredResult) corrupted(algo core.Algorithm, batch int) []Result {
	var out []Result
	for _, x := range r.Results {
		if x.Algo == algo && x.Batch == batch && x.Severity > 0 {
			out = append(out, x)
		}
	}
	return out
}

// FormatMeasured renders measured results in the Fig.-2 layout: per model
// and algorithm, the mean error (%) over the corruptions at each batch size.
func FormatMeasured(results []*MeasuredResult, cfg MeasuredConfig) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2 (measured, repro scale): avg error (%%) over %d corruptions, severity %d, %d samples/stream\n",
		len(cfg.Corruptions), Severity, cfg.StreamSize)
	fmt.Fprintf(&b, "%-12s %-9s %7s %7s %7s\n", "model", "algo", "b=50", "b=100", "b=200")
	for _, r := range results {
		for _, algo := range core.Algorithms {
			fmt.Fprintf(&b, "%-12s %-9s", r.ModelTag, algo)
			for _, batch := range Batches {
				fmt.Fprintf(&b, " %7.2f", meanErr(r.corrupted(algo, batch))*100)
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintf(&b, "%-12s clean error: %.2f%%\n", r.ModelTag, r.CleanErr)
	}
	return b.String()
}

// fig2Verdict counts, per model, the batch sizes at which the exact mean
// errors keep the paper's Fig.-2 ordering, BN-Opt < BN-Norm < No-Adapt.
// The ordering is strict: a tie does not keep it.
func fig2Verdict(results []*MeasuredResult) string {
	var held []string
	for _, r := range results {
		n := 0
		for _, batch := range Batches {
			opt, norm := meanErr(r.corrupted(core.BNOpt, batch)), meanErr(r.corrupted(core.BNNorm, batch))
			if opt < norm && norm < meanErr(r.corrupted(core.NoAdapt, batch)) {
				n++
			}
		}
		held = append(held, fmt.Sprintf("%s %d/%d", r.ModelTag, n, len(Batches)))
	}
	return fmt.Sprintf("Paper's Fig. 2 ordering BN-Opt < BN-Norm < No-Adapt holds at %s batch sizes; "+
		"one seed, no intervals (ROADMAP item 14)\n", strings.Join(held, ", "))
}

// meanErr averages the cells' error rates in cell order.
func meanErr(rs []Result) float64 {
	total := 0.0
	for _, r := range rs {
		total += r.Run.ErrorRate
	}
	return total / float64(len(rs))
}

// Entry is one leaderboard row (the RobustBench-style ranking of the
// paper's footnote 1, extended with adaptation, which RobustBench does not
// track): a model under one algorithm.
type Entry struct {
	Name  string
	Clean float64  // adapted clean-stream error rate in [0, 1]
	Cells []Result // corrupted streams at batch 50, in corruption order
}

// Entries are a model's leaderboard rows: per algorithm, its batch-50
// Fig.-2 cells and its adapted clean stream.
func (r *MeasuredResult) Entries() []Entry {
	var out []Entry
	for _, algo := range core.Algorithms {
		e := Entry{Name: fmt.Sprintf("%s + %s", r.ModelTag, algo), Cells: r.corrupted(algo, Batches[0])}
		for _, x := range r.Results {
			if x.Algo == algo && x.Severity == 0 {
				e.Clean = x.Run.ErrorRate
			}
		}
		out = append(out, e)
	}
	return out
}

// RelativeMCE is RobustBench/Hendrycks' relative mean corruption error: the
// average over corruption families of the entry's error divided by the
// baseline's. 1.0 means "as robust as the baseline"; lower is better. The
// ratios are summed in cell order, so the result's bits depend on the
// cells alone.
func RelativeMCE(e, baseline Entry) (float64, error) {
	if len(e.Cells) != len(baseline.Cells) {
		return 0, fmt.Errorf("study: %q has %d corruption cells, the baseline %d", e.Name, len(e.Cells), len(baseline.Cells))
	}
	total, n := 0.0, 0
	for i, c := range e.Cells {
		b := baseline.Cells[i]
		if c.Corruption != b.Corruption {
			return 0, fmt.Errorf("study: %q cell %d is %s, the baseline's is %s", e.Name, i, c.Corruption, b.Corruption)
		}
		if b.Run.ErrorRate <= 0 {
			continue // a perfect baseline cell carries no signal
		}
		total += c.Run.ErrorRate / b.Run.ErrorRate
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("study: no comparable corruption cells")
	}
	return total / float64(n), nil
}

// WorstCorruptions returns the k corruption families with the highest error
// for the entry, most damaging first; equal errors go in name order.
func WorstCorruptions(e Entry, k int) []string {
	cells := slices.Clone(e.Cells)
	slices.SortFunc(cells, func(a, b Result) int {
		return cmp.Or(cmp.Compare(b.Run.ErrorRate, a.Run.ErrorRate), cmp.Compare(a.Corruption.String(), b.Corruption.String()))
	})
	var out []string
	for _, c := range cells[:min(k, len(cells))] {
		out = append(out, c.Corruption.String())
	}
	return out
}

// Leaderboard renders the entries sorted by ascending mean corruption error,
// with the first entry as the rel-mCE baseline and each entry's three worst
// corruptions.
func Leaderboard(entries []Entry) (string, error) {
	if len(entries) == 0 {
		return "", fmt.Errorf("study: empty leaderboard")
	}
	sorted := append([]Entry(nil), entries...)
	slices.SortStableFunc(sorted, func(a, b Entry) int { return cmp.Compare(meanErr(a.Cells), meanErr(b.Cells)) })
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-24s %10s %10s %8s  %s\n", "rank", "entry", "clean err", "corr err", "rel mCE", "worst corruptions")
	for i, e := range sorted {
		mce, err := RelativeMCE(e, entries[0])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-4d %-24s %9.1f%% %9.1f%% %8.2f  %s\n", i+1, e.Name, 100*e.Clean,
			100*meanErr(e.Cells), mce, strings.Join(WorstCorruptions(e, 3), ", "))
	}
	fmt.Fprintf(&b, "(rel mCE baseline: %s)\n", entries[0].Name)
	return b.String(), nil
}
