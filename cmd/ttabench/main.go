// Command ttabench writes EXPERIMENTS.md, the paper's grid in one file.
// Its first half is predicted by the calibrated device simulator and the
// reference error table: the devices, every figure and table, the
// calibration anchors, the Sec. IV-G insights, the full device × model ×
// algorithm × batch grid, the frame-rate deadlines and the conv dispatch.
// Its second half is measured on this host: four repro-scale models trained
// on SynCIFAR, through Fig. 2, the ranking, the severity sweep and the
// scenario grid.
//
// Usage:
//
//	ttabench                         # writes EXPERIMENTS.md
//	ttabench -o out.md -ckpt ckpts   # another path; cache trained weights
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"edgetta/internal/study"
)

func main() {
	out := flag.String("o", "EXPERIMENTS.md", "output path")
	ckpt := flag.String("ckpt", "", "directory caching trained weights between runs (empty: always train)")
	flag.Parse()

	start := time.Now()
	doc, err := study.Experiments(*ckpt, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
	})
	if err == nil {
		err = os.WriteFile(*out, []byte(doc), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttabench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s in %v\n", *out, time.Since(start).Round(time.Second))
}
