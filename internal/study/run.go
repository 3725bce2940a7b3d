package study

import (
	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
)

// Cell is one measured episode: an adapter over its own clone of the model,
// fed one seeded stream in batches. Every measured experiment — Fig. 2, the
// leaderboard, the severity sweep and the scenario grid — is a list of
// cells and a renderer over their results.
type Cell struct {
	Algo  core.Algorithm
	Adapt core.Config // zero value: the core defaults
	Batch int
	Seed  int64 // the stream's seed
	// A fixed-corruption cell draws Samples images of Corruption at
	// Severity; Severity 0 draws them clean.
	Corruption data.Corruption
	Severity   int
	Samples    int
	// Scenario, when set, replaces the fixed stream: the cell is one
	// continual episode over it, scored per phase.
	Scenario *data.Scenario
}

// Result is a cell and how its episode went. Run.Phases is set for scenario
// cells only.
type Result struct {
	Cell
	Run core.ScenarioResult
	// ArenaBytes is what the cell's model held in its activation arena
	// after the episode's last batch (models.Model.ActivationBytes).
	ArenaBytes int
}

// Run scores every cell in order, each on a fresh clone of m, so no cell
// sees another's adaptation. It is the one place the measured experiments
// build an adapter and drive a stream.
func Run(m *models.Model, gen *data.Generator, cells []Cell) ([]Result, error) {
	out := make([]Result, len(cells))
	for i, c := range cells {
		mc := m.Clone()
		a, err := core.New(c.Algo, mc, c.Adapt)
		if err != nil {
			return nil, err
		}
		out[i].Cell = c
		if c.Scenario != nil {
			s, err := gen.NewScheduledStream(c.Seed, *c.Scenario)
			if err != nil {
				return nil, err
			}
			out[i].Run = core.RunScenario(a, s, c.Batch)
		} else {
			s := gen.NewCleanStream(c.Seed, c.Samples)
			if c.Severity > 0 {
				s = gen.NewStream(c.Seed, c.Samples, c.Corruption, c.Severity)
			}
			out[i].Run.StreamResult = core.RunStream(a, s, c.Batch)
		}
		out[i].ArenaBytes = mc.ActivationBytes()
	}
	return out, nil
}
