package study

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/device"
)

// Fig2 renders the average CIFAR-10-C prediction errors (reference table;
// for measured repro-scale numbers see Measured).
func Fig2() (string, error) {
	t := ReferenceErrors()
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2: average prediction error (%%) on CIFAR-10-C (severity 5), reference table\n")
	fmt.Fprintf(&b, "%-12s %-9s %8s %8s %8s\n", "model", "algo", "b=50", "b=100", "b=200")
	for _, model := range ModelTags {
		for _, algo := range core.Algorithms {
			row := make([]float64, len(Batches))
			for i, batch := range Batches {
				e, err := t.Err(model, algo.String(), batch)
				if err != nil {
					return "", err
				}
				row[i] = e
			}
			fmt.Fprintf(&b, "%-12s %-9s %8.2f %8.2f %8.2f\n", model, algo, row[0], row[1], row[2])
		}
	}
	fmt.Fprintf(&b, "mean improvement vs No-Adapt: BN-Norm %.2f%% (paper 4.02), BN-Opt %.2f%% (paper 6.67)\n",
		t.MeanImprovement("No-Adapt", "BN-Norm"), t.MeanImprovement("No-Adapt", "BN-Opt"))
	return b.String(), nil
}

// ForwardTimesFigure renders the per-batch forward time (inference + any
// adaptation) for all 9 model/batch cases × 3 algorithms on one engine —
// the format of Figs. 3, 6 and 9.
func ForwardTimesFigure(fig int, deviceTag string, kind device.EngineKind) (string, error) {
	pts, err := EvaluateAll(EngineCases(deviceTag, kind), ReferenceErrors())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig %d: forward times per batch on %s (%s), seconds\n", fig, deviceTag, kind)
	fmt.Fprintf(&b, "%-16s %12s %12s %12s\n", "case", "No-Adapt", "BN-Norm", "BN-Opt")
	for _, model := range RobustModelTags {
		for _, batch := range Batches {
			cols := map[core.Algorithm]string{}
			for _, p := range pts {
				if p.ModelTag == model && p.Batch == batch {
					if p.OOM {
						cols[p.Algo] = "OOM"
					} else {
						cols[p.Algo] = fmt.Sprintf("%.2f", p.Seconds)
					}
				}
			}
			fmt.Fprintf(&b, "%-16s %12s %12s %12s\n",
				fmt.Sprintf("%s-%d", model, batch),
				cols[core.NoAdapt], cols[core.BNNorm], cols[core.BNOpt])
		}
	}
	return b.String(), nil
}

// BreakdownFigure renders the forward/backward conv-vs-BN time breakdown
// at batch 50 — the format of Figs. 4, 7 and 10.
func BreakdownFigure(fig int, deviceTag string, kind device.EngineKind, modelTags []string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig %d: fw/bw breakdown on %s (%s), batch 50, seconds\n", fig, deviceTag, kind)
	fmt.Fprintf(&b, "%-12s %-9s %9s %9s %9s %9s %9s\n",
		"model", "algo", "conv fw", "bn fw", "other fw", "conv bw", "bn bw")
	errs := ReferenceErrors()
	for _, model := range modelTags {
		for _, algo := range core.Algorithms {
			p, err := Evaluate(Case{DeviceTag: deviceTag, Kind: kind, ModelTag: model,
				Algo: algo, Batch: 50}, errs)
			if err != nil {
				return "", err
			}
			ph := p.Phases
			fmt.Fprintf(&b, "%-12s %-9s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
				model, algo, ph.ConvFw, ph.BNFw, ph.OtherFw, ph.ConvBw, ph.BNBw)
		}
	}
	if deviceTag == "ultra96" {
		fmt.Fprintf(&b, "(RXT-AM omitted: the Autograd profiler itself exceeds Ultra96 memory, as in the paper)\n")
	}
	return b.String(), nil
}

// TradeoffFigure renders the three cost metrics for every case on a device
// plus the paper's four weighted-selection scenarios — Figs. 5, 8, 11. Rows
// go by model, then batch, then algorithm, as in ForwardTimesFigure.
func TradeoffFigure(fig int, deviceTag string, kinds []device.EngineKind) (string, error) {
	var cases []Case
	for _, k := range kinds {
		cases = append(cases, EngineCases(deviceTag, k)...)
	}
	pts, err := EvaluateAll(cases, ReferenceErrors())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig %d: performance-energy-accuracy trade-offs on %s\n", fig, deviceTag)
	fmt.Fprintf(&b, "%-42s %10s %10s %8s\n", "case", "time (s)", "energy (J)", "err (%)")
	slices.SortStableFunc(pts, func(p, q Point) int {
		return cmp.Or(cmp.Compare(slices.Index(ModelTags, p.ModelTag), slices.Index(ModelTags, q.ModelTag)),
			cmp.Compare(p.Batch, q.Batch), cmp.Compare(p.Algo, q.Algo))
	})
	for _, p := range pts {
		if p.OOM {
			fmt.Fprintf(&b, "%-42s %10s %10s %8.2f\n", p.Label(), "OOM", "OOM", p.ErrPct)
			continue
		}
		fmt.Fprintf(&b, "%-42s %10.3f %10.2f %8.2f\n", p.Label(), p.Seconds, p.EnergyJ, p.ErrPct)
	}
	for i, w := range PaperScenarios {
		best, err := Select(pts, w)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "optimum [%s, %s]: %s (%.3fs, %.2fJ, %.2f%%)\n",
			ScenarioNames[i], w, best.Label(), best.Seconds, best.EnergyJ, best.ErrPct)
	}
	return b.String(), nil
}

// nxEngines renders a figure for the NX's CPU, then for its GPU.
func nxEngines(render func(device.EngineKind) (string, error)) (string, error) {
	cpu, err := render(device.CPU)
	if err != nil {
		return "", err
	}
	gpu, err := render(device.GPU)
	return cpu + gpu, err
}

// Fig12 renders the global scatter with the paper's A1/A2/A3 points.
func Fig12() (string, error) {
	pts, err := EvaluateAll(AllCases(), ReferenceErrors())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 12: all design points (three devices, NX both engines)\n")
	// Best-accuracy configurations: lowest error, then fastest / most
	// efficient among them (the paper's A1 and A2).
	bestErr := 1e9
	for _, p := range pts {
		if !p.OOM && p.ErrPct < bestErr {
			bestErr = p.ErrPct
		}
	}
	var a1, a2 Point
	first := true
	for _, p := range pts {
		if p.OOM || p.ErrPct != bestErr {
			continue
		}
		if first {
			a1, a2, first = p, p, false
			continue
		}
		if p.Seconds < a1.Seconds {
			a1 = p
		}
		if p.EnergyJ < a2.EnergyJ {
			a2 = p
		}
	}
	a3, err := Select(pts, EqualWeights)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "A1 (fastest at best %.2f%% error):        %s — %.2fs, %.2fJ\n", bestErr, a1.Label(), a1.Seconds, a1.EnergyJ)
	fmt.Fprintf(&b, "A2 (most efficient at best %.2f%% error): %s — %.2fs, %.2fJ\n", bestErr, a2.Label(), a2.Seconds, a2.EnergyJ)
	fmt.Fprintf(&b, "A3 (equal-weight optimum):                %s — %.3fs, %.2fJ, %.2f%%\n", a3.Label(), a3.Seconds, a3.EnergyJ, a3.ErrPct)
	fmt.Fprintf(&b, "A1 vs A3: %.0fx slower; A2 vs A3: %.0fx more energy (paper: 220x, 114x)\n",
		a1.Seconds/a3.Seconds, a2.EnergyJ/a3.EnergyJ)
	fmt.Fprintf(&b, "\nPareto front (%d of %d feasible points):\n", len(ParetoFront(pts)), len(pts))
	for _, p := range ParetoFront(pts) {
		fmt.Fprintf(&b, "  %-42s %10.3fs %10.2fJ %7.2f%%\n", p.Label(), p.Seconds, p.EnergyJ, p.ErrPct)
	}
	return b.String(), nil
}

// Table1 renders MobileNet's forward times on the NX GPU.
func Table1() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: MobileNetV2 forward time on Xavier NX GPU, seconds\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "batch", "BN-Opt", "BN-Norm", "No-Adapt")
	errs := ReferenceErrors()
	for _, batch := range Batches {
		row := map[core.Algorithm]float64{}
		for _, algo := range core.Algorithms {
			p, err := Evaluate(Case{DeviceTag: "xaviernx", Kind: device.GPU,
				ModelTag: "MBV2", Algo: algo, Batch: batch}, errs)
			if err != nil {
				return "", err
			}
			row[algo] = p.Seconds
		}
		fmt.Fprintf(&b, "%-10d %10.2f %10.2f %10.2f\n", batch,
			row[core.BNOpt], row[core.BNNorm], row[core.NoAdapt])
	}
	fmt.Fprintf(&b, "(paper: 1.63/0.58/0.07, 3.7/1.18/0.13, 8.28/2.95/0.25)\n")
	return b.String(), nil
}
