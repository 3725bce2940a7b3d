// Command ttatrain runs the real (repro-scale) accuracy experiments. It
// trains reduced-width versions of the paper's models on the synthetic
// SynCIFAR dataset — robust (AugMix-lite + adversarial step) for the ResNet
// family, plain for MobileNetV2 — once per model, then measures Fig. 2
// (prediction error on corrupted test streams under No-Adapt, BN-Norm and
// BN-Opt at each adaptation batch size) and prints the RobustBench-style
// ranking of footnote 1 over its batch-50 cells. -severities adds the
// BN-Norm severity sweep, -scenarios the continual-TTA scenario grid.
//
// Usage:
//
//	ttatrain                       # WRN-AM only, 5 corruptions (quick)
//	ttatrain -models all           # all four models
//	ttatrain -corruptions 15 -stream 1000 -epochs 6   # closer to the paper
//	ttatrain -scenarios -ckpt /tmp/ckpts   # add the scenario grid, cache weights
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"edgetta/internal/data"
	"edgetta/internal/study"
	"edgetta/internal/telemetry"
)

func main() {
	modelsFlag := flag.String("models", "WRN-AM", "comma-separated model tags (RXT-AM, WRN-AM, R18-AM-AT, MBV2) or 'all'")
	corruptions := flag.Int("corruptions", 5, "number of corruption families to evaluate (max 15)")
	stream := flag.Int("stream", 600, "test samples per corruption stream")
	epochs := flag.Int("epochs", 4, "training epochs")
	trainSize := flag.Int("train", 1536, "training samples per epoch")
	seed := flag.Int64("seed", 7, "experiment seed")
	ckptDir := flag.String("ckpt", "", "directory for cached checkpoints (reused by runs with the same model, seed, epochs and train size)")
	severities := flag.Bool("severities", false, "after Fig 2, sweep all 5 severities with BN-Norm (extension: the paper fixes severity 5)")
	scenarios := flag.Bool("scenarios", false, "after Fig 2, run the continual-TTA scenario grid (shifting streams × BN-Norm/BN-Opt × lifecycle policy)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the whole run to this file (bounded buffer; drops past the cap)")
	flag.Parse()

	var runTrace *telemetry.Tracer
	if *traceOut != "" {
		// A whole training run emits far more layer spans than a single
		// kernel trace; raise the buffer bound and report drops instead of
		// growing without limit.
		if runTrace = telemetry.StartTracingLimit(1 << 20); runTrace == nil {
			fatal(fmt.Errorf("a trace is already being collected (EDGETTA_TRACE=1?)"))
		}
	}

	tags := strings.Split(*modelsFlag, ",")
	if *modelsFlag == "all" {
		tags = []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"}
	}
	n := min(max(*corruptions, 1), len(data.AllCorruptions))
	cfg := study.MeasuredConfig{
		Seed: *seed, Epochs: *epochs, TrainSize: *trainSize, StreamSize: *stream,
		CheckpointDir: *ckptDir,
		Corruptions:   data.AllCorruptions[:n],
		LogF: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}
	// Extensions beyond the paper: same models, printed after the ranking.
	type extension struct {
		title  string
		cells  []study.Cell
		render func([]study.Result) string
		out    strings.Builder
	}
	var exts []*extension
	if *severities {
		cells, err := study.SeverityCells(*seed, *stream/2, cfg.Corruptions)
		if err != nil {
			fatal(err)
		}
		exts = append(exts, &extension{title: "severity sweep (BN-Norm, extension beyond the paper's fixed severity 5)",
			cells: cells, render: study.FormatSeverities})
	}
	if *scenarios {
		exts = append(exts, &extension{title: "scenario grid (continual TTA, extension beyond the paper)",
			cells:  study.ScenarioCells(*seed, study.ScenarioSuite()),
			render: study.FormatScenarios})
	}

	var results []*study.MeasuredResult
	var entries []study.Entry
	for _, tag := range tags {
		tag = strings.TrimSpace(tag)
		start := time.Now()
		m, gen, err := study.TrainedModel(tag, cfg)
		if err != nil {
			fatal(err)
		}
		r, err := study.RunMeasured(m, gen, cfg)
		if err != nil {
			fatal(err)
		}
		results = append(results, r)
		entries = append(entries, r.Entries()...)
		for _, x := range exts {
			rs, err := study.Run(m, gen, x.cells)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(&x.out, "\n%s:\n%s", tag, x.render(rs))
		}
		fmt.Printf("  (%s done in %v)\n", tag, time.Since(start).Round(time.Second))
	}
	fmt.Println()
	fmt.Print(study.FormatMeasured(results, cfg))
	fmt.Println("\nExpected shape (paper Fig. 2): BN-Opt < BN-Norm < No-Adapt;")
	fmt.Println("gains shrink as batch grows; MBV2 (plain training) collapses without adaptation.")

	board, err := study.Leaderboard(entries)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n--- ranking (batch 50, severity %d; adapted clean error) ---\n%s", study.Severity, board)
	for _, x := range exts {
		fmt.Printf("\n--- %s ---\n%s", x.title, x.out.String())
	}

	if runTrace != nil {
		telemetry.StopTracing()
		f, err := os.Create(*traceOut)
		if err == nil {
			err = runTrace.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntrace: %s (%d events, %d dropped)\n", *traceOut, runTrace.Len(), runTrace.Dropped())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ttatrain:", err)
	os.Exit(1)
}
