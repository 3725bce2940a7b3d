package study

import (
	"fmt"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/data"
)

// SeverityCells lists the severity sweep, which extends the paper's
// protocol (it fixes severity 5) across all five CIFAR-10-C severity
// levels: one BN-Norm stream of the given length at batch 50 per
// (corruption, severity) cell, corruption i at severity s drawing stream
// seed seed+100i+s.
func SeverityCells(seed int64, samples int, corruptions []data.Corruption) ([]Cell, error) {
	if len(corruptions) == 0 {
		return nil, fmt.Errorf("study: severity sweep needs at least one corruption")
	}
	if samples < Batches[0] {
		return nil, fmt.Errorf("study: need at least one batch (%d < %d)", samples, Batches[0])
	}
	var cells []Cell
	for i, c := range corruptions {
		for s := 1; s <= data.MaxSeverity; s++ {
			cells = append(cells, Cell{Algo: core.BNNorm, Batch: Batches[0], Seed: seed + int64(100*i+s),
				Corruption: c, Severity: s, Samples: samples})
		}
	}
	return cells, nil
}

// FormatSeverities renders a sweep's results, in SeverityCells order, as a
// corruption × severity table with the mean over corruptions below.
func FormatSeverities(rs []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "corruption")
	for sev := 1; sev <= data.MaxSeverity; sev++ {
		fmt.Fprintf(&b, "  sev%d ", sev)
	}
	fmt.Fprintln(&b)
	var total [data.MaxSeverity]float64
	for _, r := range rs {
		if r.Severity == 1 {
			fmt.Fprintf(&b, "%-18s", r.Corruption)
		}
		fmt.Fprintf(&b, " %5.1f%%", 100*r.Run.ErrorRate)
		total[r.Severity-1] += r.Run.ErrorRate
		if r.Severity == data.MaxSeverity {
			fmt.Fprintln(&b)
		}
	}
	fmt.Fprintf(&b, "%-18s", "mean")
	for _, t := range total {
		fmt.Fprintf(&b, " %5.1f%%", 100*(t/float64(len(rs)/data.MaxSeverity)))
	}
	fmt.Fprintln(&b)
	return b.String()
}
