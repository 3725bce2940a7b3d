package study

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/device"
	"edgetta/internal/profile"
	"edgetta/internal/tensor"
)

// Marker ends the predicted half of EXPERIMENTS.md. Everything above it
// comes from the simulator and the reference error table alone, so it is
// the same on every host and TestExperimentsGolden holds it byte for byte;
// everything below it is measured on the host it names.
const Marker = "<!-- end of the predicted half: everything below is measured on the host named next -->"

// Experiments renders EXPERIMENTS.md: the predicted half, then the measured
// half for all four models at the MeasuredConfig defaults (seed 7),
// caching trained weights in ckptDir when it is set.
func Experiments(ckptDir string, logf func(format string, args ...any)) (string, error) {
	pred, err := Predicted()
	if err != nil {
		return "", err
	}
	meas, err := Measured(ModelTags, MeasuredConfig{Seed: 7, CheckpointDir: ckptDir, LogF: logf}, ScenarioSuite())
	if err != nil {
		return "", err
	}
	return pred + meas, nil
}

// section renders a level-2 heading over its body in a fenced block.
func section(b *strings.Builder, title, body string) {
	fmt.Fprintf(b, "\n## %s\n\n```text\n%s\n```\n", title, strings.Trim(body, "\n"))
}

// Predicted renders the host-independent half of EXPERIMENTS.md, ending
// with the Marker line.
func Predicted() (string, error) {
	var b strings.Builder
	b.WriteString(`# Experiments

Written by ` + "`go run ./cmd/ttabench`" + `; do not edit by hand. The first half
is predicted: the calibrated device simulator and the paper-anchored
reference error table price the paper's grid (three boards, three robust
models plus MobileNetV2, No-Adapt / BN-Norm / BN-Opt, batch 50/100/200), so
it reads the same on every host. The second half is measured: repro-scale
models trained on SynCIFAR and adapted online on corrupted streams.
`)
	section(&b, "Devices", Devices())
	parts := []struct {
		title  string
		render func() (string, error)
	}{
		{"fig2", Fig2},
		{"fig3", func() (string, error) { return ForwardTimesFigure(3, "ultra96", device.CPU) }},
		{"fig4", func() (string, error) {
			return BreakdownFigure(4, "ultra96", device.CPU, []string{"WRN-AM", "R18-AM-AT"})
		}},
		{"fig5", func() (string, error) { return TradeoffFigure(5, "ultra96", []device.EngineKind{device.CPU}) }},
		{"fig6", func() (string, error) { return ForwardTimesFigure(6, "rpi4", device.CPU) }},
		{"fig7", func() (string, error) { return BreakdownFigure(7, "rpi4", device.CPU, RobustModelTags) }},
		{"fig8", func() (string, error) { return TradeoffFigure(8, "rpi4", []device.EngineKind{device.CPU}) }},
		{"fig9", func() (string, error) {
			return nxEngines(func(k device.EngineKind) (string, error) { return ForwardTimesFigure(9, "xaviernx", k) })
		}},
		{"fig10", func() (string, error) {
			return nxEngines(func(k device.EngineKind) (string, error) {
				return BreakdownFigure(10, "xaviernx", k, RobustModelTags)
			})
		}},
		{"fig11", func() (string, error) {
			return TradeoffFigure(11, "xaviernx", []device.EngineKind{device.CPU, device.GPU})
		}},
		{"fig12", Fig12},
		{"table1", Table1},
		{"Calibration anchors", Anchors},
		{"Architecture-algorithm insights (Sec. IV-G)", Insights},
		{"Predicted grid: every device engine × model × algorithm × batch", Grid},
		{"Frame rates and deadlines", Deadlines},
		{"Conv dispatch (full-size models)", Kernels},
	}
	for _, p := range parts {
		out, err := p.render()
		if err != nil {
			return "", err
		}
		section(&b, p.title, out)
	}
	fmt.Fprintf(&b, "\n%s\n", Marker)
	return b.String(), nil
}

// Measured trains (or loads) each tagged model and renders the measured
// half of EXPERIMENTS.md: the host, Fig. 2 with its per-cell latency, the
// arena beside the simulator's graph footprint, the ranking, the severity
// sweep, and — when scenarios are given — the scenario grid.
func Measured(tags []string, cfg MeasuredConfig, scenarios []data.Scenario) (string, error) {
	cfg = cfg.withDefaults()
	sevCells, err := SeverityCells(cfg.Seed, cfg.StreamSize/2, cfg.Corruptions)
	if err != nil {
		return "", err
	}
	scenCells := ScenarioCells(cfg.Seed, scenarios)
	var results []*MeasuredResult
	var entries []Entry
	var arena, sev, scen strings.Builder
	fmt.Fprintf(&arena, "%-12s %11s %11s %19s\n", "model", "BN-Norm MB", "BN-Opt MB", "predicted graph MB")
	for _, tag := range tags {
		start := time.Now()
		m, gen, err := TrainedModel(tag, cfg)
		if err != nil {
			return "", err
		}
		r, err := RunMeasured(m, gen, cfg)
		if err != nil {
			return "", err
		}
		results = append(results, r)
		entries = append(entries, r.Entries()...)
		rs, err := Run(m, gen, sevCells)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sev, "\n%s:\n%s", tag, FormatSeverities(rs))
		if len(scenCells) > 0 {
			if rs, err = Run(m, gen, scenCells); err != nil {
				return "", err
			}
			fmt.Fprintf(&scen, "\n%s:\n%s", tag, FormatScenarios(rs))
		}
		graph := device.GraphBytes(profile.New(m), Batches[0], false)
		fmt.Fprintf(&arena, "%-12s %11.1f %11.1f %19.1f\n", tag,
			mb(r.corrupted(core.BNNorm, Batches[0])[0].ArenaBytes),
			mb(r.corrupted(core.BNOpt, Batches[0])[0].ArenaBytes), mb(int(graph)))
		cfg.LogF("%s done in %v", tag, time.Since(start).Round(time.Second))
	}
	board, err := Leaderboard(entries)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	names := make([]string, len(cfg.Corruptions))
	for i, c := range cfg.Corruptions {
		names[i] = c.String()
	}
	section(&b, "Host and configuration", fmt.Sprintf(
		"%s %s/%s, CPU %s, %d vCPUs, GOMAXPROCS %d, span and plane kernels %s\n"+
			"seed %d; %d epochs of %d training samples; %d samples per stream; corruptions %s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuName(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		tensor.SpanKernel(), cfg.Seed, cfg.Epochs, cfg.TrainSize, cfg.StreamSize, strings.Join(names, ", ")))
	section(&b, "Fig 2, measured", FormatMeasured(results, cfg)+"\n"+fig2Verdict(results))
	section(&b, "Fig 2 latency: per-batch Process p50 (ms), median over the corruption streams", formatLatency(results))
	section(&b, fmt.Sprintf("Arena after the last batch of %d beside the simulator's BN-Opt graph (repro scale)", Batches[0]),
		arena.String())
	section(&b, fmt.Sprintf("Ranking (batch %d, severity %d; adapted clean error)", Batches[0], Severity), board)
	section(&b, "Severity sweep (BN-Norm, extension beyond the paper's fixed severity 5)", sev.String())
	if len(scenCells) > 0 {
		section(&b, "Scenario grid (continual TTA, extension beyond the paper)", scen.String())
	}
	return b.String(), nil
}

func mb(bytes int) float64 { return float64(bytes) / (1 << 20) }

// formatLatency renders Fig. 2's latency twin: per model, algorithm and
// batch size, the median over the corruption streams of each stream's
// per-batch p50.
func formatLatency(results []*MeasuredResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-9s %7s %7s %7s\n", "model", "algo", "b=50", "b=100", "b=200")
	for _, r := range results {
		for _, algo := range core.Algorithms {
			fmt.Fprintf(&b, "%-12s %-9s", r.ModelTag, algo)
			for _, batch := range Batches {
				var p50s []time.Duration
				for _, x := range r.corrupted(algo, batch) {
					p50s = append(p50s, x.Run.Latency.P50)
				}
				slices.Sort(p50s)
				fmt.Fprintf(&b, " %7.1f", float64(p50s[len(p50s)/2])/1e6)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// cpuName is the host CPU's model name, where the OS reports one.
func cpuName() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
