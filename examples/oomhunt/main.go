// Oomhunt maps the memory envelope of test-time adaptation: for every
// device, model, algorithm and batch size it reports whether the
// configuration fits, and how much headroom remains. This reproduces the
// paper's out-of-memory findings (Secs. IV-B and IV-D) — e.g. ResNeXt +
// BN-Opt dies on the 2 GB Ultra96 at batch ≥100 because the dynamic
// autograd graph alone exceeds DRAM, and on the NX GPU at batch 200 once
// cuDNN's residency is added.
package main

import (
	"fmt"
	"math/rand"

	"edgetta/internal/core"
	"edgetta/internal/device"
	"edgetta/internal/models"
	"edgetta/internal/profile"
	"edgetta/internal/tensor"
)

func main() {
	modelTags := []string{"RXT-AM", "WRN-AM", "R18-AM-AT", "MBV2"}
	batches := []int{50, 100, 200}

	for _, d := range device.All() {
		for _, eng := range d.Engines {
			avail := d.MemBytes - d.OSReserveBytes
			fmt.Printf("\n=== %s / %s (%.1f GB usable) ===\n",
				d.Name, eng.Name, float64(avail)/(1<<30))
			fmt.Printf("%-11s %-9s %8s %8s %8s\n", "model", "algo", "b=50", "b=100", "b=200")
			for _, tag := range modelTags {
				p, err := profile.Get(tag)
				if err != nil {
					panic(err)
				}
				for _, algo := range []core.Algorithm{core.BNNorm, core.BNOpt} {
					fmt.Printf("%-11s %-9s", tag, algo)
					for _, b := range batches {
						r, err := device.Estimate(d, eng.Kind, p, algo, b)
						if err != nil {
							panic(err)
						}
						cell := fmt.Sprintf("%.0fMB", float64(r.PeakMemBytes)/(1<<20))
						if r.OOM {
							cell = "OOM"
						}
						fmt.Printf(" %8s", cell)
					}
					fmt.Println()
				}
			}
		}
	}
	fmt.Println("\nPaper cross-check: Ultra96 kills RXT-AM/BN-Opt at batch 100 and 200;")
	fmt.Println("the NX GPU kills it at 200 only (extra cuDNN residency); the RPi (8 GB) runs everything.")
	measured()
}

// measured prints the table's measured twin at the scale this process can
// run: what a repro model's activation arena holds after a batch of 50 under
// BN-Norm (no backward: a few buffers) and BN-Opt (the saved graph plus the
// gradients in flight), beside the simulator's graph footprint for the same
// model and batch.
func measured() {
	const batch = 50
	fmt.Printf("\nMeasured here, repro scale, batch %d: Model.ActivationBytes() vs device.GraphBytes\n", batch)
	for _, tag := range []string{"WRN-AM", "RXT-AM"} {
		fmt.Printf("%-7s", tag)
		var m *models.Model
		for _, algo := range []core.Algorithm{core.BNNorm, core.BNOpt} {
			var err error
			if m, err = models.ByTag(tag, rand.New(rand.NewSource(1)), models.ReproScale); err != nil {
				panic(err)
			}
			a, err := core.New(algo, m, core.Config{})
			if err != nil {
				panic(err)
			}
			a.Process(tensor.New(batch, m.InC, m.InHW, m.InHW))
			fmt.Printf("  %s %.1f MB", algo, float64(m.ActivationBytes())/(1<<20))
		}
		tr := profile.Capture(m)
		graph := device.GraphBytes(&profile.ModelProfile{Tag: tag, Trace: tr, Summary: tr.Summarize()}, batch, false)
		fmt.Printf("  predicted graph %.1f MB\n", float64(graph)/(1<<20))
	}
}
