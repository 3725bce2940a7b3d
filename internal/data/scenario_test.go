package data

import (
	"reflect"
	"strings"
	"testing"

	"edgetta/internal/parallel"
)

func rampSwitchMix() Scenario {
	return Scenario{Name: "combo", Phases: []Phase{
		{Corruption: Fog, Severity: 2, Length: 30},
		{Corruption: GaussianNoise, Severity: 5, Length: 25},
		{Clean: true, Length: 20},
		{Length: 25, Mix: []MixEntry{
			{Corruption: Snow, Severity: 3, Weight: 1},
			{Corruption: Contrast, Severity: 4, Weight: 0.5},
		}},
	}}
}

// materialize drains a scheduled stream with the given batch size into one
// flat pixel slice and label slice.
func materialize(t *testing.T, seed int64, sc Scenario, batch int) ([]float32, []int) {
	t.Helper()
	gen := NewGenerator(77)
	s, err := gen.NewScheduledStream(seed, sc)
	if err != nil {
		t.Fatal(err)
	}
	var pixels []float32
	var labels []int
	for {
		x, lab, ok := s.Next(batch)
		if !ok {
			return pixels, labels
		}
		pixels = append(pixels, x.Data...)
		labels = append(labels, lab...)
	}
}

// TestScheduledStreamSeedDeterminism pins the core contract: the same seed
// yields byte-identical stream content across independent runs and across
// worker-pool widths (generation must never depend on the parallel pool).
func TestScheduledStreamSeedDeterminism(t *testing.T) {
	sc := rampSwitchMix()
	refPix, refLab := materialize(t, 9, sc, 16)

	again, lab := materialize(t, 9, sc, 16)
	if !reflect.DeepEqual(refPix, again) || !reflect.DeepEqual(refLab, lab) {
		t.Fatal("same seed, same batching: stream content differs across runs")
	}

	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		pix, lab := materialize(t, 9, sc, 16)
		parallel.SetWorkers(0)
		if !reflect.DeepEqual(refPix, pix) || !reflect.DeepEqual(refLab, lab) {
			t.Fatalf("stream content differs at %d workers", workers)
		}
	}

	if pix, _ := materialize(t, 10, sc, 16); reflect.DeepEqual(refPix, pix) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestScheduledStreamBatchSliceInvariance pins the stronger-than-Stream
// guarantee the package doc promises: the stream's total content is
// invariant to how callers slice it into batches, including slicings that
// straddle phase boundaries and ragged final batches.
func TestScheduledStreamBatchSliceInvariance(t *testing.T) {
	sc := rampSwitchMix()
	refPix, refLab := materialize(t, 4, sc, sc.Total()) // one giant batch
	for _, batch := range []int{1, 7, 16, 30, 64} {
		pix, lab := materialize(t, 4, sc, batch)
		if !reflect.DeepEqual(refPix, pix) {
			t.Fatalf("batch size %d changed the pixel stream", batch)
		}
		if !reflect.DeepEqual(refLab, lab) {
			t.Fatalf("batch size %d changed the label stream", batch)
		}
	}
}

// TestScheduledStreamConservation: the stream emits exactly Total() samples
// for any batch size, every batch's samples attribute to exactly one phase,
// and per-phase counts match the schedule.
func TestScheduledStreamConservation(t *testing.T) {
	sc := rampSwitchMix()
	for _, batch := range []int{1, 13, 50} {
		gen := NewGenerator(3)
		s, err := gen.NewScheduledStream(2, sc)
		if err != nil {
			t.Fatal(err)
		}
		perPhase := make([]int, len(sc.Phases))
		total := 0
		for {
			pos := s.Pos()
			x, labels, ok := s.Next(batch)
			if !ok {
				break
			}
			if x.Dim(0) != len(labels) {
				t.Fatalf("batch dim %d != %d labels", x.Dim(0), len(labels))
			}
			for i := range labels {
				perPhase[sc.PhaseAt(pos+i)]++
			}
			total += len(labels)
		}
		if total != sc.Total() {
			t.Fatalf("batch %d: emitted %d samples, want %d", batch, total, sc.Total())
		}
		for i, p := range sc.Phases {
			if perPhase[i] != p.Length {
				t.Fatalf("batch %d: phase %d got %d samples, want %d", batch, i, perPhase[i], p.Length)
			}
		}
		if s.Remaining() != 0 {
			t.Fatalf("exhausted stream reports %d remaining", s.Remaining())
		}
	}
}

// TestGeneratorsProduceValidSchedules exercises every generator and checks
// structure: lengths, totals, phase ordering and seed determinism.
func TestGeneratorsProduceValidSchedules(t *testing.T) {
	ramp := SeverityRamp("up", Fog, 1, 5, 10)
	if len(ramp.Phases) != 5 || ramp.Total() != 50 {
		t.Fatalf("ascending ramp malformed: %v", ramp)
	}
	down := SeverityRamp("down", Fog, 4, 2, 10)
	if len(down.Phases) != 3 || down.Phases[0].Severity != 4 || down.Phases[2].Severity != 2 {
		t.Fatalf("descending ramp malformed: %v", down)
	}
	sw := AbruptSwitch("sw", []Corruption{Fog, Snow, Contrast}, 3, 20)
	if len(sw.Phases) != 3 || sw.Total() != 60 {
		t.Fatalf("switch malformed: %v", sw)
	}
	cyc := RecurringCycle("cyc", []Corruption{Fog, Snow}, 3, 20, 3)
	if len(cyc.Phases) != 6 || cyc.Phases[0].Corruption != cyc.Phases[2].Corruption {
		t.Fatalf("cycle malformed: %v", cyc)
	}
	mix := MixedTraffic("mix", 5, 3, 40, 3)
	if len(mix.Phases) != 3 || mix.Total() != 120 {
		t.Fatalf("mixed traffic malformed: %v", mix)
	}
	for _, p := range mix.Phases {
		if len(p.Mix) < 2 || len(p.Mix) > 4 {
			t.Fatalf("mixed phase outside 2–4 components: %v", p)
		}
	}
	if !reflect.DeepEqual(mix, MixedTraffic("mix", 5, 3, 40, 3)) {
		t.Fatal("MixedTraffic not seed-deterministic")
	}
	if reflect.DeepEqual(mix, MixedTraffic("mix", 6, 3, 40, 3)) {
		t.Fatal("MixedTraffic ignored its seed")
	}
	for _, sc := range []Scenario{ramp, down, sw, cyc, mix} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
	for pos, want := 0, 0; pos < sw.Total(); pos++ {
		if pos > 0 && pos%20 == 0 {
			want++
		}
		if got := sw.PhaseAt(pos); got != want {
			t.Fatalf("PhaseAt(%d) = %d, want %d", pos, got, want)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{Name: "empty"},
		{Name: "zero-len", Phases: []Phase{{Corruption: Fog, Severity: 1, Length: 0}}},
		{Name: "bad-sev", Phases: []Phase{{Corruption: Fog, Severity: 9, Length: 5}}},
		{Name: "bad-corruption", Phases: []Phase{{Corruption: Corruption(99), Severity: 1, Length: 5}}},
		{Name: "bad-weight", Phases: []Phase{{Length: 5, Mix: []MixEntry{{Corruption: Fog, Severity: 1, Weight: 0}}}}},
		{Name: "bad-mix-sev", Phases: []Phase{{Length: 5, Mix: []MixEntry{{Corruption: Fog, Severity: 0, Weight: 1}}}}},
	}
	gen := NewGenerator(1)
	for _, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: expected validation error", sc.Name)
		}
		if _, err := gen.NewScheduledStream(1, sc); err == nil {
			t.Errorf("%s: NewScheduledStream accepted an invalid scenario", sc.Name)
		}
	}
	ok := rampSwitchMix()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	if got := ok.String(); !strings.Contains(got, "fog/2×30") || !strings.Contains(got, "clean×20") || !strings.Contains(got, "mix(2)×25") {
		t.Fatalf("rendering incomplete: %s", got)
	}
}

func TestPhaseAtPanicsOutOfRange(t *testing.T) {
	sc := rampSwitchMix()
	for _, pos := range []int{-1, sc.Total()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PhaseAt(%d) should panic", pos)
				}
			}()
			sc.PhaseAt(pos)
		}()
	}
}
