package study

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/data"
)

// cell is a scored fixed-corruption result, the leaderboard's input.
func cell(c data.Corruption, err float64) Result {
	return Result{Cell: Cell{Corruption: c, Severity: Severity},
		Run: core.ScenarioResult{StreamResult: core.StreamResult{ErrorRate: err}}}
}

func TestRelativeMCESelfIsOne(t *testing.T) {
	s := Entry{Name: "a", Cells: []Result{cell(data.Fog, 0.2), cell(data.Snow, 0.4)}}
	mce, err := RelativeMCE(s, s)
	if err != nil {
		t.Fatal(err)
	}
	if mce != 1 {
		t.Fatalf("self mCE = %v, want 1", mce)
	}
	better := Entry{Name: "b", Cells: []Result{cell(data.Fog, 0.1), cell(data.Snow, 0.2)}}
	mce, err = RelativeMCE(better, s)
	if err != nil {
		t.Fatal(err)
	}
	if mce != 0.5 {
		t.Fatalf("halved errors should give mCE 0.5, got %v", mce)
	}
}

func TestRelativeMCEMismatchedCells(t *testing.T) {
	a := Entry{Cells: []Result{cell(data.Fog, 0.2)}}
	b := Entry{Cells: []Result{cell(data.Snow, 0.2)}}
	if _, err := RelativeMCE(a, b); err == nil {
		t.Fatal("mismatched corruptions must error")
	}
	if _, err := RelativeMCE(a, Entry{Cells: []Result{cell(data.Fog, 0.2), cell(data.Snow, 0.2)}}); err == nil {
		t.Fatal("mismatched cell counts must error")
	}
}

// TestRelativeMCEBitsAreFixed: five unequal ratios whose float sum depends
// on the order they are added in. Summed in cell order, every evaluation
// gives the same bits.
func TestRelativeMCEBitsAreFixed(t *testing.T) {
	cs := []data.Corruption{data.GaussianNoise, data.Fog, data.Snow, data.Contrast, data.JPEG}
	errs := []float64{0.13, 0.47, 0.61, 0.89, 0.29}
	base := []float64{0.71, 0.33, 0.93, 0.45, 0.57}
	var e, b Entry
	for i, c := range cs {
		e.Cells = append(e.Cells, cell(c, errs[i]))
		b.Cells = append(b.Cells, cell(c, base[i]))
	}
	const want = 0x3fee66147c6ccb0a // (0.13/0.71 + 0.47/0.33 + … + 0.29/0.57) / 5, added left to right
	for i := 0; i < 200; i++ {
		mce, err := RelativeMCE(e, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(mce); got != want {
			t.Fatalf("evaluation %d: rel mCE bits %#x, want %#x", i, got, uint64(want))
		}
	}
}

func TestLeaderboardSortsAndRenders(t *testing.T) {
	entries := []Entry{
		{Name: "baseline", Clean: 0.1, Cells: []Result{cell(data.Fog, 0.5)}},
		{Name: "adapted", Clean: 0.1, Cells: []Result{cell(data.Fog, 0.2)}},
	}
	out, err := Leaderboard(entries)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Index(out, "adapted") > strings.Index(out, "baseline") {
		t.Fatal("leaderboard should rank the adapted entry first")
	}
	if !strings.Contains(out, "rel mCE baseline: baseline") {
		t.Fatal("baseline annotation missing")
	}
	if _, err := Leaderboard(nil); err == nil {
		t.Fatal("empty leaderboard must error")
	}
}

func TestWorstCorruptions(t *testing.T) {
	e := Entry{Cells: []Result{cell(data.Fog, 0.9), cell(data.Snow, 0.1), cell(data.JPEG, 0.5),
		cell(data.Contrast, 0.5)}}
	got := WorstCorruptions(e, 3)
	if want := []string{"fog", "contrast", "jpeg"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("worst = %v, want %v (ties in name order)", got, want)
	}
	if len(WorstCorruptions(e, 10)) != 4 {
		t.Fatal("k beyond size should clamp")
	}
}

// TestEntriesStructure: a model's leaderboard rows carry one batch-50 cell
// per configured corruption, in order, and every error — per cell, mean and
// clean — is a rate in [0, 1].
func TestEntriesStructure(t *testing.T) {
	cs := []data.Corruption{data.GaussianNoise, data.Fog, data.Contrast}
	cfg := MeasuredConfig{Seed: 1, StreamSize: 60, Corruptions: cs}
	r, err := RunMeasured(reproModel(1), data.NewGenerator(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Entries() {
		if len(e.Cells) != len(cs) {
			t.Fatalf("%s: %d corruption cells, want %d", e.Name, len(e.Cells), len(cs))
		}
		for i, c := range e.Cells {
			if c.Corruption != cs[i] || c.Batch != Batches[0] || c.Run.Samples != 60 {
				t.Fatalf("%s: cell %d is %s at batch %d over %d samples", e.Name, i, c.Corruption, c.Batch, c.Run.Samples)
			}
			if c.Run.ErrorRate < 0 || c.Run.ErrorRate > 1 {
				t.Fatalf("%s: %s error %v out of range", e.Name, c.Corruption, c.Run.ErrorRate)
			}
		}
		if m := meanErr(e.Cells); m < 0 || m > 1 || e.Clean < 0 || e.Clean > 1 {
			t.Fatalf("%s: mean error %v, clean %v", e.Name, m, e.Clean)
		}
	}
}

// TestAdaptationClimbsLeaderboard is the end-to-end property the paper's
// study adds on top of RobustBench: the same model with BN adaptation is
// ranked beside itself without it. The untrained model is near chance
// either way, so only the rows' shape and the baseline are required.
func TestAdaptationClimbsLeaderboard(t *testing.T) {
	cfg := MeasuredConfig{Seed: 1, StreamSize: 50, Corruptions: []data.Corruption{data.GaussianNoise, data.Fog}}
	r, err := RunMeasured(reproModel(3), data.NewGenerator(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := r.Entries()
	if len(entries) != len(core.Algorithms) {
		t.Fatalf("%d entries, want one per algorithm", len(entries))
	}
	for _, e := range entries {
		if len(e.Cells) != 2 || e.Cells[0].Corruption != data.GaussianNoise || e.Clean < 0 || e.Clean > 1 {
			t.Fatalf("%s: %d cells, clean %v", e.Name, len(e.Cells), e.Clean)
		}
		for _, c := range e.Cells {
			if c.Batch != 50 || c.Run.Samples != 50 || c.Run.ErrorRate < 0 || c.Run.ErrorRate > 1 {
				t.Fatalf("%s: cell %+v", e.Name, c)
			}
		}
	}
	if mce, err := RelativeMCE(entries[0], entries[0]); err != nil || mce != 1 {
		t.Fatalf("baseline rel mCE %v, %v", mce, err)
	}
	out, err := Leaderboard(entries)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rel mCE baseline: WRN-AM + No-Adapt") || !strings.Contains(out, "WRN-AM + BN-Opt") {
		t.Fatalf("leaderboard:\n%s", out)
	}
	if fig := FormatMeasured([]*MeasuredResult{r}, cfg); strings.Count(fig, "\n") != 6 {
		t.Fatalf("Fig. 2 table:\n%s", fig)
	}
}

// TestFig2Verdict counts, on hand-built mean errors, the batch sizes that
// keep the paper's ordering BN-Opt < BN-Norm < No-Adapt: a tie or a
// reversal does not keep it.
func TestFig2Verdict(t *testing.T) {
	// errs[algo][i] is every corruption cell's error at batch Batches[i].
	model := func(tag string, errs [3][3]float64) *MeasuredResult {
		r := &MeasuredResult{ModelTag: tag}
		for _, algo := range core.Algorithms {
			for i, batch := range Batches {
				for _, c := range []data.Corruption{data.GaussianNoise, data.Fog} {
					x := cell(c, errs[algo][i])
					x.Algo, x.Batch = algo, batch
					r.Results = append(r.Results, x)
				}
			}
		}
		return r
	}
	var all []*MeasuredResult
	for _, tc := range []struct {
		tag  string
		errs [3][3]float64 // No-Adapt, BN-Norm, BN-Opt
		want string
	}{
		{"ordered", [3][3]float64{{0.3, 0.3, 0.3}, {0.2, 0.2, 0.1}, {0.1, 0.15, 0.05}}, "3/3"},
		// BN-Opt ties BN-Norm at batch 100, BN-Norm ties No-Adapt at 200.
		{"tied", [3][3]float64{{0.3, 0.3, 0.2}, {0.2, 0.2, 0.2}, {0.1, 0.2, 0.1}}, "1/3"},
		{"reversed", [3][3]float64{{0.1, 0.1, 0.1}, {0.2, 0.2, 0.2}, {0.3, 0.3, 0.3}}, "0/3"},
	} {
		r := model(tc.tag, tc.errs)
		all = append(all, r)
		if got, want := fig2Verdict([]*MeasuredResult{r}), " at "+tc.tag+" "+tc.want+" batch sizes;"; !strings.Contains(got, want) {
			t.Errorf("%s: verdict %q lacks %q", tc.tag, got, want)
		}
	}
	want := "Paper's Fig. 2 ordering BN-Opt < BN-Norm < No-Adapt holds at ordered 3/3, tied 1/3, reversed 0/3 batch sizes; " +
		"one seed, no intervals (ROADMAP item 14)\n"
	if got := fig2Verdict(all); got != want {
		t.Errorf("verdict\n%q\nwant\n%q", got, want)
	}
}

// TestRunKeepsCellOrderAndLeaksNoState mixes fixed-corruption, clean and
// scenario cells over every algorithm: results come back in cell order,
// only scenario cells carry phases, and a second run — or a cell run on its
// own — gives the same bits, so no cell sees another's adaptation.
func TestRunKeepsCellOrderAndLeaksNoState(t *testing.T) {
	sc := data.AbruptSwitch("switch", []data.Corruption{data.Fog, data.GaussianNoise}, 5, 40)
	cells := []Cell{
		{Algo: core.BNOpt, Batch: 20, Seed: 1, Corruption: data.Fog, Severity: 5, Samples: 40},
		{Algo: core.BNNorm, Batch: 20, Seed: 2, Samples: 40},
		{Algo: core.BNOpt, Adapt: core.Config{LR: 0.1, Steps: 2}, Batch: 20, Seed: 3, Scenario: &sc},
		{Algo: core.NoAdapt, Batch: 40, Seed: 4, Corruption: data.Contrast, Severity: 3, Samples: 40},
		{Algo: core.BNOpt, Batch: 20, Seed: 1, Corruption: data.Fog, Severity: 5, Samples: 40},
	}
	m, gen := reproModel(5), data.NewGenerator(6)
	first, err := Run(m, gen, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range first {
		if r.Cell != cells[i] {
			t.Fatalf("result %d is for cell %+v, want %+v", i, r.Cell, cells[i])
		}
		if (len(r.Run.Phases) > 0) != (cells[i].Scenario != nil) {
			t.Errorf("cell %d: %d phases", i, len(r.Run.Phases))
		}
		want := 40
		if cells[i].Scenario != nil {
			want = sc.Total()
		}
		if r.Run.Samples != want {
			t.Errorf("cell %d: %d samples, want %d", i, r.Run.Samples, want)
		}
	}
	bits := func(rs []Result) string {
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%#x/%d ", math.Float64bits(r.Run.ErrorRate), r.Run.Correct)
			for _, p := range r.Run.Phases {
				fmt.Fprintf(&b, "%#x ", math.Float64bits(p.ErrorRate))
			}
		}
		return b.String()
	}
	second, err := Run(m, gen, cells)
	if err != nil {
		t.Fatal(err)
	}
	if bits(first) != bits(second) {
		t.Fatalf("second run differs:\n%s\n%s", bits(first), bits(second))
	}
	alone, err := Run(m, gen, cells[4:])
	if err != nil {
		t.Fatal(err)
	}
	if bits(alone) != bits(first[4:]) || bits(first[:1]) != bits(first[4:]) {
		t.Fatalf("a cell's result depends on the cells before it: %s / %s / %s",
			bits(first[:1]), bits(first[4:]), bits(alone))
	}
	bad := data.Scenario{Name: "empty"}
	if _, err := Run(m, gen, []Cell{{Algo: core.BNNorm, Batch: 20, Scenario: &bad}}); err == nil {
		t.Fatal("an invalid scenario must error")
	}
}

// TestTrainedModelCacheKeysOnWhatTrainedIt: a checkpoint is reused only by
// a run with the same seed (and epochs and train size) — the generator's
// class templates follow the seed, so another seed's weights are wrong.
func TestTrainedModelCacheKeysOnWhatTrainedIt(t *testing.T) {
	dir := t.TempDir()
	train := func(seed int64) ([]float32, string) {
		t.Helper()
		var log strings.Builder
		m, _, err := TrainedModel("WRN-AM", MeasuredConfig{Seed: seed, Epochs: 1, TrainSize: 32, CheckpointDir: dir,
			LogF: func(format string, args ...any) { fmt.Fprintf(&log, format+"\n", args...) }})
		if err != nil {
			t.Fatal(err)
		}
		var w []float32
		for _, p := range m.Params() {
			w = append(w, p.Data...)
		}
		return w, log.String()
	}
	w1, log1 := train(1)
	w2, log2 := train(2)
	w1again, log1again := train(1)
	if !strings.Contains(log1, "training") || !strings.Contains(log2, "training") {
		t.Fatalf("seeds 1 and 2 must both train:\n%s\n%s", log1, log2)
	}
	if !strings.Contains(log1again, "loaded cached checkpoint") {
		t.Fatalf("a repeat of seed 1 must load its checkpoint:\n%s", log1again)
	}
	if reflect.DeepEqual(w1, w2) {
		t.Fatal("seeds 1 and 2 trained identical weights")
	}
	if !reflect.DeepEqual(w1, w1again) {
		t.Fatal("the loaded seed-1 weights differ from the trained ones")
	}
}

// TestMeasuredCellsSeeds: a corruption's stream is the same images at every
// batch size, and no two corruptions — nor a corruption and the clean
// stream — share a stream.
func TestMeasuredCellsSeeds(t *testing.T) {
	cfg := MeasuredConfig{Seed: 7, Corruptions: data.AllCorruptions}
	for _, algo := range core.Algorithms {
		seeds := map[data.Corruption]int64{}
		owner := map[int64]string{}
		for _, c := range MeasuredCells(cfg) {
			if c.Algo != algo {
				continue
			}
			name := "clean"
			if c.Severity > 0 {
				name = c.Corruption.String()
				if s, ok := seeds[c.Corruption]; ok && s != c.Seed {
					t.Fatalf("%s %s: seed %d at batch %d, %d at another batch", algo, name, c.Seed, c.Batch, s)
				}
				seeds[c.Corruption] = c.Seed
			}
			if o, ok := owner[c.Seed]; ok && o != name {
				t.Fatalf("%s: %s and %s share stream seed %d", algo, o, name, c.Seed)
			}
			owner[c.Seed] = name
		}
		if len(seeds) != len(data.AllCorruptions) {
			t.Fatalf("%s: %d corruptions seeded, want %d", algo, len(seeds), len(data.AllCorruptions))
		}
	}
}
