// Command ttabench regenerates the paper's figures and tables from the
// calibrated device simulator and the reference error table, and reports
// how the conv kernels run. Every measured accuracy experiment (trained
// models) is ttatrain's.
//
// Usage:
//
//	ttabench -figure fig2        # one artifact (fig2..fig12, table1)
//	ttabench -figure all         # everything
//	ttabench -anchors            # calibration anchors vs simulated values
//	ttabench -kernels            # which convs read their input in place, which stage it
//	ttabench -trace out.json     # Chrome trace of one BN-Opt kernel run
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/device"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/profile"
	"edgetta/internal/study"
	"edgetta/internal/tensor"
)

func main() {
	figure := flag.String("figure", "all", "figure/table id (fig2..fig12, table1) or 'all'")
	anchors := flag.Bool("anchors", false, "print paper anchors vs simulated values")
	insights := flag.Bool("insights", false, "print the recomputed Sec. IV-G architecture-algorithm insights")
	kernels := flag.Bool("kernels", false, "print per model how many convs the direct kernel reads in place, how many it stages, and the staged bytes per image")
	tag := flag.String("model", "WRN-AM", "model tag for -trace")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of one kernel run to this file")
	flag.Parse()

	var err error
	switch {
	case *traceOut != "":
		err = writeKernelTrace(*traceOut, *tag)
	case *kernels:
		printKernels()
	case *anchors:
		err = printAnchors()
	case *insights:
		var out string
		if out, err = study.Insights(); err == nil {
			fmt.Println(out)
		}
	default:
		ids := []string{*figure}
		if *figure == "all" {
			ids = study.FigureIDs()
		}
		for _, id := range ids {
			var out string
			if out, err = study.Figure(id); err != nil {
				break
			}
			fmt.Println(out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttabench:", err)
		os.Exit(1)
	}
}

// writeKernelTrace captures a single-run BN-Opt kernel trace on the
// repro-scale model and writes it as Chrome trace-event JSON — every
// layer's fw/bw span plus the staged convs' pack (staging copy) sub-spans, viewable
// at chrome://tracing or https://ui.perfetto.dev.
func writeKernelTrace(path, tag string) error {
	m, err := models.ByTag(tag, rand.New(rand.NewSource(1)), models.ReproScale)
	if err != nil {
		return err
	}
	tr, err := profile.CaptureKernelTrace(m, core.BNOpt, 16, 1)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d events (%d dropped)\n", path, tr.Len(), tr.Dropped())
	return nil
}

// printKernels reports how each model's convolutions reach the direct
// kernel: read in place or staged first is a function of the layer's pad
// and stride, so this table is the whole dispatch — the ground truth for
// interpreting benchmark numbers, together with the span kernel the CPU
// runs. Staged KB is what the staging copies write per image, over all
// staged layers.
func printKernels() {
	fmt.Printf("span kernel: %s\n", tensor.SpanKernel())
	fmt.Printf("%-10s %15s %13s %16s\n", "model", "in-place convs", "staged convs", "staged KB/image")
	for _, b := range append(models.Registry(), models.MobileNetV2) {
		m := b(rand.New(rand.NewSource(1)), models.Full)
		inPlace, staged, stagedFloats := 0, 0, 0
		profile.Capture(m) // a real forward, so every conv has seen its input geometry
		nn.Walk(m.Net, func(l nn.Layer) {
			c, ok := l.(*nn.Conv2d)
			if !ok {
				return
			}
			if shape := c.ConvShape(); shape.InPlace() {
				inPlace++
			} else {
				staged++
				stagedFloats += tensor.NewConvPlan(shape).StagedLen()
			}
		})
		fmt.Printf("%-10s %15d %13d %16.1f\n", m.Tag, inPlace, staged, float64(4*stagedFloats)/1024)
	}
}

type anchor struct {
	name  string
	paper float64
	sim   func() (float64, error)
}

func printAnchors() error {
	sim := func(devTag string, kind device.EngineKind, model string, algo core.Algorithm, batch int,
		metric func(device.Report) float64) func() (float64, error) {
		return func() (float64, error) {
			d, _ := device.ByTag(devTag)
			p, err := profile.Get(model)
			if err != nil {
				return 0, err
			}
			r, err := device.Estimate(d, kind, p, algo, batch)
			if err != nil {
				return 0, err
			}
			return metric(r), nil
		}
	}
	secs := func(r device.Report) float64 { return r.Seconds }
	joules := func(r device.Report) float64 { return r.EnergyJ }

	anchors := []anchor{
		{"Ultra96 WRN-50 No-Adapt (s)", 3.58, sim("ultra96", device.CPU, "WRN-AM", core.NoAdapt, 50, secs)},
		{"Ultra96 WRN-50 BN-Norm (s)", 3.95, sim("ultra96", device.CPU, "WRN-AM", core.BNNorm, 50, secs)},
		{"Ultra96 WRN-50 BN-Opt (s)", 13.35, sim("ultra96", device.CPU, "WRN-AM", core.BNOpt, 50, secs)},
		{"Ultra96 WRN-50 No-Adapt (J)", 4.47, sim("ultra96", device.CPU, "WRN-AM", core.NoAdapt, 50, joules)},
		{"Ultra96 WRN-50 BN-Norm (J)", 4.93, sim("ultra96", device.CPU, "WRN-AM", core.BNNorm, 50, joules)},
		{"Ultra96 WRN-50 BN-Opt (J)", 14.35, sim("ultra96", device.CPU, "WRN-AM", core.BNOpt, 50, joules)},
		{"RPi WRN-50 No-Adapt (s)", 2.04, sim("rpi4", device.CPU, "WRN-AM", core.NoAdapt, 50, secs)},
		{"RPi WRN-50 BN-Norm (s)", 2.59, sim("rpi4", device.CPU, "WRN-AM", core.BNNorm, 50, secs)},
		{"RPi WRN-50 BN-Opt (s)", 7.97, sim("rpi4", device.CPU, "WRN-AM", core.BNOpt, 50, secs)},
		{"RPi WRN-50 No-Adapt (J)", 5.04, sim("rpi4", device.CPU, "WRN-AM", core.NoAdapt, 50, joules)},
		{"RPi WRN-50 BN-Norm (J)", 5.95, sim("rpi4", device.CPU, "WRN-AM", core.BNNorm, 50, joules)},
		{"RPi WRN-50 BN-Opt (J)", 19.12, sim("rpi4", device.CPU, "WRN-AM", core.BNOpt, 50, joules)},
		{"NX-GPU WRN-50 No-Adapt (s)", 0.10, sim("xaviernx", device.GPU, "WRN-AM", core.NoAdapt, 50, secs)},
		{"NX-GPU WRN-50 BN-Norm (s)", 0.315, sim("xaviernx", device.GPU, "WRN-AM", core.BNNorm, 50, secs)},
		{"NX-GPU WRN-50 BN-Opt (s)", 0.82, sim("xaviernx", device.GPU, "WRN-AM", core.BNOpt, 50, secs)},
		{"NX-GPU WRN-50 No-Adapt (J)", 1.02, sim("xaviernx", device.GPU, "WRN-AM", core.NoAdapt, 50, joules)},
		{"NX-GPU WRN-50 BN-Norm (J)", 2.96, sim("xaviernx", device.GPU, "WRN-AM", core.BNNorm, 50, joules)},
		{"NX-GPU WRN-50 BN-Opt (J)", 7.96, sim("xaviernx", device.GPU, "WRN-AM", core.BNOpt, 50, joules)},
		{"A1: NX-CPU RXT-200 BN-Opt (s)", 69.58, sim("xaviernx", device.CPU, "RXT-AM", core.BNOpt, 200, secs)},
		{"A2: RPi RXT-200 BN-Opt (J)", 337.43, sim("rpi4", device.CPU, "RXT-AM", core.BNOpt, 200, joules)},
		{"MBV2 NX-GPU b50 BN-Opt (s)", 1.63, sim("xaviernx", device.GPU, "MBV2", core.BNOpt, 50, secs)},
		{"MBV2 NX-GPU b200 No-Adapt (s)", 0.25, sim("xaviernx", device.GPU, "MBV2", core.NoAdapt, 200, secs)},
	}

	fmt.Printf("%-34s %10s %10s %8s\n", "anchor", "paper", "simulated", "delta")
	fmt.Println(strings.Repeat("-", 66))
	for _, a := range anchors {
		v, err := a.sim()
		if err != nil {
			return err
		}
		fmt.Printf("%-34s %10.3f %10.3f %+7.1f%%\n", a.name, a.paper, v, 100*(v-a.paper)/a.paper)
	}
	return nil
}
