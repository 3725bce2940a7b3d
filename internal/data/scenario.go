// Scenario engine: temporally-shifting corruption streams.
//
// Every stream the repository evaluated before this file was a single fixed
// (corruption, severity) pair, which hides the continual-TTA failure mode:
// BN-Norm/BN-Opt drifting or forgetting as the test distribution changes
// under them. A Scenario is an explicit schedule of phases — each a run of
// samples drawn from one corruption setting or a weighted mixture — and a
// ScheduledStream plays the schedule back with the same Next(n) contract as
// Stream, so core.RunStream, core.RunScenario and internal/serve consume
// shifting traffic unchanged.
//
// Determinism contract: a ScheduledStream generates images strictly one at a
// time from a single seeded rng, corrupting each image immediately after
// sampling it. The rng consumption per sample therefore depends only on the
// sample's position in the schedule, never on how callers slice the stream
// into batches — the stream's total content is byte-identical for any
// sequence of Next(n) sizes, across runs, and across worker-pool widths
// (generation never enters the parallel kernels). Tests pin all three.
package data

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// MixEntry is one component of a mixed-corruption phase.
type MixEntry struct {
	Corruption Corruption
	Severity   int
	// Weight is the entry's relative draw probability (need not be
	// normalized; must be positive).
	Weight float64
}

// Phase is one segment of a scenario: Length samples of a fixed corruption
// setting, or — when Mix is non-empty — of per-image draws from a weighted
// corruption mixture.
type Phase struct {
	// Corruption and Severity corrupt every image of the phase when Mix is
	// empty and Clean is false.
	Corruption Corruption
	Severity   int
	// Clean emits uncorrupted samples (a "shift back to source" phase).
	Clean bool
	// Length is the phase's sample count.
	Length int
	// Mix, when non-empty, draws each image's corruption independently from
	// the weighted entries — mixed-corruption traffic, the shape of serving
	// many users at once. Corruption/Severity/Clean are ignored.
	Mix []MixEntry
}

// Label renders the phase compactly, e.g. "fog/3", "clean" or "mix(4)".
func (p Phase) Label() string {
	switch {
	case len(p.Mix) > 0:
		return fmt.Sprintf("mix(%d)", len(p.Mix))
	case p.Clean:
		return "clean"
	default:
		return fmt.Sprintf("%s/%d", p.Corruption, p.Severity)
	}
}

// Scenario is a named schedule of corruption phases.
type Scenario struct {
	Name   string
	Phases []Phase
}

// Total returns the scenario's sample count — the sum of phase lengths.
func (sc Scenario) Total() int {
	total := 0
	for _, p := range sc.Phases {
		total += p.Length
	}
	return total
}

// PhaseLengths returns the per-phase sample counts, the arrival-pattern
// input internal/stream's phased simulator consumes.
func (sc Scenario) PhaseLengths() []int {
	out := make([]int, len(sc.Phases))
	for i, p := range sc.Phases {
		out[i] = p.Length
	}
	return out
}

// PhaseAt maps a global sample position (0-based) to the index of the phase
// containing it. It panics outside [0, Total()).
func (sc Scenario) PhaseAt(pos int) int {
	if pos >= 0 {
		off := 0
		for i, p := range sc.Phases {
			off += p.Length
			if pos < off {
				return i
			}
		}
	}
	panic(fmt.Sprintf("data: sample position %d outside scenario %q (total %d)", pos, sc.Name, sc.Total()))
}

// Validate reports schedule errors: no phases, non-positive phase lengths,
// out-of-range severities, or non-positive mixture weights.
func (sc Scenario) Validate() error {
	if len(sc.Phases) == 0 {
		return fmt.Errorf("data: scenario %q has no phases", sc.Name)
	}
	for i, p := range sc.Phases {
		if p.Length <= 0 {
			return fmt.Errorf("data: scenario %q phase %d: length %d must be positive", sc.Name, i, p.Length)
		}
		check := func(c Corruption, sev int) error {
			if c < 0 || int(c) >= NumCorruptions {
				return fmt.Errorf("data: scenario %q phase %d: unknown corruption %d", sc.Name, i, c)
			}
			if sev < 1 || sev > MaxSeverity {
				return fmt.Errorf("data: scenario %q phase %d: severity %d outside [1, %d]", sc.Name, i, sev, MaxSeverity)
			}
			return nil
		}
		if len(p.Mix) > 0 {
			for _, e := range p.Mix {
				if e.Weight <= 0 {
					return fmt.Errorf("data: scenario %q phase %d: mixture weight %v must be positive", sc.Name, i, e.Weight)
				}
				if err := check(e.Corruption, e.Severity); err != nil {
					return err
				}
			}
			continue
		}
		if p.Clean {
			continue
		}
		if err := check(p.Corruption, p.Severity); err != nil {
			return err
		}
	}
	return nil
}

// String renders the schedule, e.g. "fog-ramp: fog/1×100 → fog/3×100".
func (sc Scenario) String() string {
	var b strings.Builder
	b.WriteString(sc.Name)
	b.WriteString(":")
	for i, p := range sc.Phases {
		if i > 0 {
			b.WriteString(" →")
		}
		fmt.Fprintf(&b, " %s×%d", p.Label(), p.Length)
	}
	return b.String()
}

// --- Generators ---

// SeverityRamp schedules a gradual severity ramp of one corruption family:
// perStep samples at every severity from `from` to `to` inclusive
// (ascending or descending) — the slow-drift scenario.
func SeverityRamp(name string, c Corruption, from, to, perStep int) Scenario {
	step := 1
	if to < from {
		step = -1
	}
	sc := Scenario{Name: name}
	for s := from; ; s += step {
		sc.Phases = append(sc.Phases, Phase{Corruption: c, Severity: s, Length: perStep})
		if s == to {
			break
		}
	}
	return sc
}

// AbruptSwitch schedules hard cuts between corruption families at a fixed
// severity: perPhase samples of each family in order — the sudden-shift
// scenario where continual adapters forget or diverge.
func AbruptSwitch(name string, cs []Corruption, severity, perPhase int) Scenario {
	sc := Scenario{Name: name}
	for _, c := range cs {
		sc.Phases = append(sc.Phases, Phase{Corruption: c, Severity: severity, Length: perPhase})
	}
	return sc
}

// RecurringCycle repeats an AbruptSwitch schedule `cycles` times — the
// revisiting-distribution scenario: an adapter that forgot phase 1 pays for
// it again in cycle 2.
func RecurringCycle(name string, cs []Corruption, severity, perPhase, cycles int) Scenario {
	sc := Scenario{Name: name}
	for cycle := 0; cycle < cycles; cycle++ {
		for _, c := range cs {
			sc.Phases = append(sc.Phases, Phase{Corruption: c, Severity: severity, Length: perPhase})
		}
	}
	return sc
}

// MixedTraffic schedules seeded mixed-corruption traffic: nPhases phases of
// perPhase samples, each phase drawing every image from a random weighted
// mixture of 2–4 corruption families at severities within ±1 of the given
// level. The same seed always yields the same schedule.
func MixedTraffic(name string, seed int64, nPhases, perPhase, severity int) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Name: name}
	for i := 0; i < nPhases; i++ {
		k := 2 + rng.Intn(3)
		mix := make([]MixEntry, 0, k)
		used := make([]bool, NumCorruptions)
		for len(mix) < k {
			c := Corruption(rng.Intn(NumCorruptions))
			if used[c] {
				continue
			}
			used[c] = true
			sev := clampInt(severity+rng.Intn(3)-1, 1, MaxSeverity)
			mix = append(mix, MixEntry{Corruption: c, Severity: sev, Weight: 0.2 + rng.Float64()})
		}
		sc.Phases = append(sc.Phases, Phase{Length: perPhase, Mix: mix})
	}
	return sc
}

// MixFromWeights builds a mixture phase's entries from a corruption→weight
// map at one severity. The entries are ordered by corruption index, so the
// resulting schedule is independent of map iteration order.
func MixFromWeights(weights map[Corruption]float64, severity int) []MixEntry {
	var keys []Corruption
	for c := range weights {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]MixEntry, 0, len(keys))
	for _, c := range keys {
		out = append(out, MixEntry{Corruption: c, Severity: severity, Weight: weights[c]})
	}
	return out
}

// --- Scheduled stream ---

// ScheduledStream plays a Scenario back as a test stream. It satisfies the
// same Next(n) contract as Stream, so every consumer of corruption streams
// (core.RunStream, core.RunScenario, internal/serve) handles shifting traffic
// unchanged. Batches returned by Next may straddle phase boundaries, as
// real traffic does; use Scenario().PhaseAt to attribute samples to phases.
type ScheduledStream struct {
	gen *Generator
	rng *rand.Rand
	sc  Scenario
	pos int // samples emitted so far
	// curPhase is the last phase a trace marker was emitted for (-1 before
	// the first sample). Marker bookkeeping never touches the rng or the
	// clock — telemetry.Instant stamps events inside the telemetry package
	// — so traced and untraced streams are byte-identical.
	curPhase int
}

// NewScheduledStream returns a stream playing the scenario from the seed.
// The scenario must validate.
func (g *Generator) NewScheduledStream(seed int64, sc Scenario) (*ScheduledStream, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &ScheduledStream{gen: g, rng: rand.New(rand.NewSource(seed)), sc: sc, curPhase: -1}, nil
}

// Scenario returns the schedule the stream plays.
func (s *ScheduledStream) Scenario() Scenario { return s.sc }

// Pos returns the number of samples emitted so far — the global position of
// the next sample, which Scenario().PhaseAt maps to a phase index.
func (s *ScheduledStream) Pos() int { return s.pos }

// Remaining reports how many samples are left in the schedule.
func (s *ScheduledStream) Remaining() int { return s.sc.Total() - s.pos }

// Next returns the next batch of up to n samples, or ok=false when the
// schedule is exhausted. Each image is sampled and corrupted individually in
// schedule order, so batch contents do not depend on how the stream is
// sliced into batches.
func (s *ScheduledStream) Next(n int) (x *tensor.Tensor, labels []int, ok bool) {
	remain := s.Remaining()
	if remain <= 0 {
		return nil, nil, false
	}
	if n > remain {
		n = remain
	}
	h, w := s.gen.h, s.gen.w
	plane := 3 * h * w
	x = tensor.New(n, 3, h, w)
	labels = make([]int, n)
	for i := 0; i < n; i++ {
		pi := s.sc.PhaseAt(s.pos)
		p := s.sc.Phases[pi]
		if pi != s.curPhase {
			s.curPhase = pi
			if tr := telemetry.ActiveTracer(); tr != nil {
				tr.Instant("scenario", "phase:"+p.Label(), 0,
					telemetry.Arg{Key: "scenario", Value: s.sc.Name},
					telemetry.Arg{Key: "phase", Value: pi},
					telemetry.Arg{Key: "pos", Value: s.pos})
			}
		}
		labels[i] = s.rng.Intn(NumClasses)
		img := s.gen.Sample(s.rng, labels[i])
		switch {
		case len(p.Mix) > 0:
			e := drawMix(p.Mix, s.rng)
			img = Apply(e.Corruption, img, h, w, e.Severity, s.rng)
		case p.Clean:
			// source-distribution phase: no corruption
		default:
			img = Apply(p.Corruption, img, h, w, p.Severity, s.rng)
		}
		copy(x.Data[i*plane:(i+1)*plane], img)
		s.pos++
	}
	return x, labels, true
}

// drawMix samples one mixture entry in proportion to its weight.
func drawMix(mix []MixEntry, rng *rand.Rand) MixEntry {
	total := 0.0
	for _, e := range mix {
		total += e.Weight
	}
	r := rng.Float64() * total
	for _, e := range mix {
		r -= e.Weight
		if r < 0 {
			return e
		}
	}
	return mix[len(mix)-1] // float round-off tail
}
