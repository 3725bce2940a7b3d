package study

import (
	"fmt"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/device"
	"edgetta/internal/nn"
	"edgetta/internal/profile"
	"edgetta/internal/tensor"
)

// Devices lists the simulated boards, their DRAM and their engines.
func Devices() string {
	var b strings.Builder
	for _, d := range device.All() {
		fmt.Fprintf(&b, "%-10s %s — %d MB DRAM\n", d.Tag, d.Name, d.MemBytes>>20)
		for _, e := range d.Engines {
			fmt.Fprintf(&b, "           %s engine: %s (%.1f GMAC/s, %.2f W busy)\n",
				e.Kind, e.Name, e.MACRate, e.PowerBusy)
		}
	}
	return b.String()
}

// anchors are the numbers the paper prints that the simulator is
// calibrated against: one configuration each, read as seconds or joules
// per batch.
var anchors = []struct {
	name   string
	paper  float64
	c      Case
	joules bool
}{
	{"Ultra96 WRN-50 No-Adapt (s)", 3.58, Case{"ultra96", device.CPU, "WRN-AM", core.NoAdapt, 50}, false},
	{"Ultra96 WRN-50 BN-Norm (s)", 3.95, Case{"ultra96", device.CPU, "WRN-AM", core.BNNorm, 50}, false},
	{"Ultra96 WRN-50 BN-Opt (s)", 13.35, Case{"ultra96", device.CPU, "WRN-AM", core.BNOpt, 50}, false},
	{"Ultra96 WRN-50 No-Adapt (J)", 4.47, Case{"ultra96", device.CPU, "WRN-AM", core.NoAdapt, 50}, true},
	{"Ultra96 WRN-50 BN-Norm (J)", 4.93, Case{"ultra96", device.CPU, "WRN-AM", core.BNNorm, 50}, true},
	{"Ultra96 WRN-50 BN-Opt (J)", 14.35, Case{"ultra96", device.CPU, "WRN-AM", core.BNOpt, 50}, true},
	{"RPi WRN-50 No-Adapt (s)", 2.04, Case{"rpi4", device.CPU, "WRN-AM", core.NoAdapt, 50}, false},
	{"RPi WRN-50 BN-Norm (s)", 2.59, Case{"rpi4", device.CPU, "WRN-AM", core.BNNorm, 50}, false},
	{"RPi WRN-50 BN-Opt (s)", 7.97, Case{"rpi4", device.CPU, "WRN-AM", core.BNOpt, 50}, false},
	{"RPi WRN-50 No-Adapt (J)", 5.04, Case{"rpi4", device.CPU, "WRN-AM", core.NoAdapt, 50}, true},
	{"RPi WRN-50 BN-Norm (J)", 5.95, Case{"rpi4", device.CPU, "WRN-AM", core.BNNorm, 50}, true},
	{"RPi WRN-50 BN-Opt (J)", 19.12, Case{"rpi4", device.CPU, "WRN-AM", core.BNOpt, 50}, true},
	{"NX-GPU WRN-50 No-Adapt (s)", 0.10, Case{"xaviernx", device.GPU, "WRN-AM", core.NoAdapt, 50}, false},
	{"NX-GPU WRN-50 BN-Norm (s)", 0.315, Case{"xaviernx", device.GPU, "WRN-AM", core.BNNorm, 50}, false},
	{"NX-GPU WRN-50 BN-Opt (s)", 0.82, Case{"xaviernx", device.GPU, "WRN-AM", core.BNOpt, 50}, false},
	{"NX-GPU WRN-50 No-Adapt (J)", 1.02, Case{"xaviernx", device.GPU, "WRN-AM", core.NoAdapt, 50}, true},
	{"NX-GPU WRN-50 BN-Norm (J)", 2.96, Case{"xaviernx", device.GPU, "WRN-AM", core.BNNorm, 50}, true},
	{"NX-GPU WRN-50 BN-Opt (J)", 7.96, Case{"xaviernx", device.GPU, "WRN-AM", core.BNOpt, 50}, true},
	{"A1: NX-CPU RXT-200 BN-Opt (s)", 69.58, Case{"xaviernx", device.CPU, "RXT-AM", core.BNOpt, 200}, false},
	{"A2: RPi RXT-200 BN-Opt (J)", 337.43, Case{"rpi4", device.CPU, "RXT-AM", core.BNOpt, 200}, true},
	{"MBV2 NX-GPU b50 BN-Opt (s)", 1.63, Case{"xaviernx", device.GPU, "MBV2", core.BNOpt, 50}, false},
	{"MBV2 NX-GPU b200 No-Adapt (s)", 0.25, Case{"xaviernx", device.GPU, "MBV2", core.NoAdapt, 200}, false},
}

// Anchors renders each calibration anchor beside the simulated value.
func Anchors() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %10s %10s %8s\n", "anchor", "paper", "simulated", "delta")
	fmt.Fprintln(&b, strings.Repeat("-", 66))
	for _, a := range anchors {
		p, err := Evaluate(a.c, ReferenceErrors())
		if err != nil {
			return "", err
		}
		v := p.Seconds
		if a.joules {
			v = p.EnergyJ
		}
		fmt.Fprintf(&b, "%-34s %10.3f %10.3f %+7.1f%%\n", a.name, a.paper, v, 100*(v-a.paper)/a.paper)
	}
	return b.String(), nil
}

// Grid renders the paper's whole design space as the simulator prices it:
// every device engine × model × algorithm × batch, with time and energy per
// batch, peak memory (OOM when it exceeds the board's usable DRAM) and the
// seconds the algorithm adds over No-Adapt on the same engine and batch.
func Grid() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %-10s %-9s %5s %9s %11s %8s %13s\n",
		"device/engine", "model", "algo", "batch", "time (s)", "energy (J)", "peak MB", "overhead (s)")
	for _, d := range device.All() {
		for _, e := range d.Engines {
			for _, model := range ModelTags {
				noAdapt := map[int]float64{}
				for _, algo := range core.Algorithms {
					for _, batch := range Batches {
						p, err := Evaluate(Case{d.Tag, e.Kind, model, algo, batch}, ReferenceErrors())
						if err != nil {
							return "", err
						}
						mem, overhead := fmt.Sprintf("%.0f", p.MemMB), "-"
						if p.OOM {
							mem = "OOM"
						}
						if algo == core.NoAdapt {
							noAdapt[batch] = p.Seconds
						} else {
							overhead = fmt.Sprintf("%.3f", p.Seconds-noAdapt[batch])
						}
						fmt.Fprintf(&b, "%-13s %-10s %-9s %5d %9.3f %11.2f %8s %13s\n",
							d.Tag+"/"+e.Kind.String(), model, algo, batch, p.Seconds, p.EnergyJ, mem, overhead)
					}
				}
			}
		}
	}
	return b.String(), nil
}

// Deadlines asks the question behind the paper's Sec. IV-E warning (the
// extra adaptation time "can be a bottleneck for tight deadlines"): at what
// frame rates can each engine sustain online adaptation of WRN-AM? The
// simulator prices one batch; fifo queues the batches of a fixed-rate
// stream and reports misses and duty-cycled energy.
func Deadlines() (string, error) {
	const (
		batch    = 50
		deadline = 2.0 // seconds from batch-complete to prediction
		frames   = 6000
	)
	prof, err := profile.Get("WRN-AM")
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, algo := range []core.Algorithm{core.BNNorm, core.BNOpt} {
		fmt.Fprintf(&b, "\n=== WRN-AM batch %d, %s, deadline %.1fs ===\n", batch, algo, deadline)
		fmt.Fprintf(&b, "%-22s %10s %12s %10s %10s %12s\n",
			"device/engine", "svc (s)", "max FPS", "30 FPS", "120 FPS", "energy@30 (J)")
		for _, d := range device.All() {
			for _, e := range d.Engines {
				cost, err := device.Estimate(d, e.Kind, prof, algo, batch)
				if err != nil {
					return "", err
				}
				var verdicts [2]string
				var energy30 float64
				for i, fps := range []float64{30, 120} {
					miss, energy := fifo(batch/fps, cost.Seconds, deadline, frames/batch, e.PowerBusy, e.PowerIdle)
					verdicts[i] = "ok"
					if miss > 0 {
						verdicts[i] = fmt.Sprintf("%.0f%% miss", 100*miss)
					}
					if i == 0 {
						energy30 = energy
					}
				}
				// The highest sustainable rate: one batch of service per
				// batch period.
				fmt.Fprintf(&b, "%-22s %10.3f %12.0f %10s %10s %12.1f\n",
					d.Tag+"/"+e.Kind.String(), cost.Seconds, batch/cost.Seconds,
					verdicts[0], verdicts[1], energy30)
			}
		}
	}
	fmt.Fprintln(&b, "\nOnly the NX GPU sustains video-rate streams with adaptation on;")
	fmt.Fprintln(&b, "the Arm-only boards need batch accumulation windows of several seconds.")
	return b.String(), nil
}

// fifo serves n batches, ready one every period seconds, in arrival order
// on one processor that takes svc seconds per batch, with no queue bound.
// A batch misses when its result is ready more than deadline seconds after
// the batch is. Energy is busyW while serving and idleW otherwise, until
// the later of the last arrival and the last completion.
func fifo(period, svc, deadline float64, n int, busyW, idleW float64) (missRate, energyJ float64) {
	free, busy, misses := 0.0, 0.0, 0
	for i := range n {
		ready := float64(i+1) * period
		free = max(free, ready) + svc
		busy += svc
		if free-ready > deadline {
			misses++
		}
	}
	if n > 0 {
		missRate = float64(misses) / float64(n)
	}
	wall := max(float64(n)*period, free)
	return missRate, busy*busyW + (wall-busy)*idleW
}

// Kernels reports how each full-size model's convolutions reach the direct
// kernel: read in place or staged first, which is a function of the layer's
// pad and stride alone. Staged KB is what the staging copies write per
// image, over all staged layers.
func Kernels() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %15s %13s %16s\n", "model", "in-place convs", "staged convs", "staged KB/image")
	for _, tag := range ModelTags {
		p, err := profile.Get(tag)
		if err != nil {
			return "", err
		}
		inPlace, staged, stagedFloats := 0, 0, 0
		for _, l := range p.Trace {
			switch {
			case l.Kind != nn.KindConv:
			case l.Conv.InPlace():
				inPlace++
			default:
				staged++
				stagedFloats += tensor.NewConvPlan(l.Conv).StagedLen()
			}
		}
		fmt.Fprintf(&b, "%-10s %15d %13d %16.1f\n", p.Tag, inPlace, staged, float64(4*stagedFloats)/1024)
	}
	return b.String(), nil
}
