package study

import "fmt"

// Weights are the objective weights of Sec. III-F: the study minimizes
// w1·time(s) + w2·energy(J) + w3·error(%) as a raw weighted sum. The
// weights must sum to 1.
type Weights struct {
	Time, Energy, Err float64
}

// Valid reports whether the weights are nonnegative and sum to ~1.
func (w Weights) Valid() bool {
	s := w.Time + w.Energy + w.Err
	return w.Time >= 0 && w.Energy >= 0 && w.Err >= 0 && s > 0.999 && s < 1.001
}

// String renders the weights.
func (w Weights) String() string {
	return fmt.Sprintf("w_time=%.2f w_energy=%.2f w_err=%.2f", w.Time, w.Energy, w.Err)
}

// The paper's four weighting scenarios (Sec. III-F).
var (
	EqualWeights   = Weights{Time: 1.0 / 3, Energy: 1.0 / 3, Err: 1.0 / 3}
	PerfPriority   = Weights{Time: 0.8, Energy: 0.1, Err: 0.1}
	ErrPriority    = Weights{Time: 0.1, Energy: 0.1, Err: 0.8}
	EnergyPriority = Weights{Time: 0.1, Energy: 0.8, Err: 0.1}
	PaperScenarios = []Weights{EqualWeights, PerfPriority, ErrPriority, EnergyPriority}
	ScenarioNames  = []string{"equal", "performance", "accuracy", "energy"}
)

// Objective computes the weighted cost of a point.
func (w Weights) Objective(p Point) float64 {
	return w.Time*p.Seconds + w.Energy*p.EnergyJ + w.Err*p.ErrPct
}

// Select returns the feasible point minimizing the weighted objective.
// OOM points are infeasible. It returns an error when nothing is feasible.
func Select(points []Point, w Weights) (Point, error) {
	if !w.Valid() {
		return Point{}, fmt.Errorf("study: invalid weights %v", w)
	}
	best, found := Point{}, false
	for _, p := range points {
		if p.OOM {
			continue
		}
		if !found || w.Objective(p) < w.Objective(best) {
			best, found = p, true
		}
	}
	if !found {
		return Point{}, fmt.Errorf("study: no feasible point among %d", len(points))
	}
	return best, nil
}

// ParetoFront returns the feasible points not dominated in
// (time, energy, error) — the trade-off frontier visible in Figs. 5/8/11.
func ParetoFront(points []Point) []Point {
	var out []Point
	for i, p := range points {
		if p.OOM {
			continue
		}
		dominated := false
		for j, q := range points {
			if i == j || q.OOM {
				continue
			}
			if q.Seconds <= p.Seconds && q.EnergyJ <= p.EnergyJ && q.ErrPct <= p.ErrPct &&
				(q.Seconds < p.Seconds || q.EnergyJ < p.EnergyJ || q.ErrPct < p.ErrPct) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
