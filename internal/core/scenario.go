package core

import (
	"fmt"
	"strings"

	"edgetta/internal/data"
)

// PhaseResult aggregates prediction error over one scenario phase.
type PhaseResult struct {
	Phase     data.Phase
	Samples   int
	Correct   int
	ErrorRate float64
	// Resets counts lifecycle-policy hard resets fired on batches whose
	// first sample fell in this phase.
	Resets int
}

// ScenarioResult extends StreamResult with per-phase attribution, the
// quantity that makes continual-TTA drift and forgetting visible: a single
// stream-level error rate averages the failure away, while the phase
// breakdown shows exactly where an adapter diverged after a shift.
type ScenarioResult struct {
	StreamResult
	Scenario data.Scenario
	Phases   []PhaseResult
	// Resets is the total number of lifecycle-policy hard resets.
	Resets int
}

// RunScenario executes the online protocol over a shifting stream and
// attributes every prediction to the scenario phase its sample came from.
// Like RunStream, the adapter is Reset first; batches may straddle phase
// boundaries (real traffic does not pause at a shift), and straddling
// samples count toward their own phases.
func RunScenario(a Adapter, s *data.ScheduledStream, batchSize int) ScenarioResult {
	sc := s.Scenario()
	res := ScenarioResult{Scenario: sc, Phases: make([]PhaseResult, len(sc.Phases))}
	for i := range res.Phases {
		res.Phases[i].Phase = sc.Phases[i]
	}
	pol, _ := a.(*PolicyAdapter)
	prevResets := 0
	if pol != nil {
		prevResets = pol.Resets() // Reset leaves the count alone
	}
	res.StreamResult = runOnline(a, s, batchSize, func(preds, labels []int) {
		pos := s.Pos() - len(labels) // the batch's first sample
		for i, p := range preds {
			ph := &res.Phases[sc.PhaseAt(pos+i)]
			ph.Samples++
			if p == labels[i] {
				ph.Correct++
			}
		}
		if pol != nil {
			if r := pol.Resets(); r != prevResets {
				res.Phases[sc.PhaseAt(pos)].Resets += r - prevResets
				res.Resets += r - prevResets
				prevResets = r
			}
		}
	})
	for i := range res.Phases {
		if n := res.Phases[i].Samples; n > 0 {
			res.Phases[i].ErrorRate = 1 - float64(res.Phases[i].Correct)/float64(n)
		}
	}
	return res
}

// WorstPhase returns the highest per-phase error rate — the forgetting/
// divergence indicator a stream-level average hides.
func (r ScenarioResult) WorstPhase() float64 {
	worst := 0.0
	for _, p := range r.Phases {
		if p.Samples > 0 && p.ErrorRate > worst {
			worst = p.ErrorRate
		}
	}
	return worst
}

// String renders the per-phase breakdown on one line, e.g.
// "switch: fog/5 38.0% → snow/5 61.5% (2 resets, mean 49.8%)".
func (r ScenarioResult) String() string {
	var b strings.Builder
	b.WriteString(r.Scenario.Name)
	b.WriteString(":")
	for i, p := range r.Phases {
		if i > 0 {
			b.WriteString(" →")
		}
		fmt.Fprintf(&b, " %s %.1f%%", p.Phase.Label(), 100*p.ErrorRate)
	}
	fmt.Fprintf(&b, " (%d resets, mean %.1f%%)", r.Resets, 100*r.ErrorRate)
	return b.String()
}
