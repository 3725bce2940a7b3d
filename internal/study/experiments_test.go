package study

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"edgetta/internal/data"
)

// TestExperimentsGolden re-renders the predicted half of EXPERIMENTS.md and
// compares it with the checked-in file byte for byte, through the marker
// line. A simulator or figure change fails here until the file is
// regenerated with `go run ./cmd/ttabench`.
func TestExperimentsGolden(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	got, err := Predicted()
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wantLines := strings.Split(string(raw), "\n")
	for i, g := range gotLines {
		w := "<end of file>"
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md line %d differs from the re-rendered predicted half:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// TestMeasuredHalfRenders renders the measured half at smoke sizes: one
// briefly trained WRN-AM through Fig. 2, the ranking and the severity sweep.
func TestMeasuredHalfRenders(t *testing.T) {
	out, err := Measured([]string{"WRN-AM"}, MeasuredConfig{
		Seed: 7, Epochs: 1, TrainSize: 64, StreamSize: 100, Corruptions: data.AllCorruptions[:2],
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`(?m)^Fig 2 \(measured, repro scale\)`, `rel mCE`, `(?m)^corruption .*sev5`} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("measured half has no match for %s:\n%s", want, out)
		}
	}
}
