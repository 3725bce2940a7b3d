// Command devsim queries the edge-device simulator for a single
// configuration, printing the latency/energy/memory estimate and its
// per-phase breakdown.
//
// Usage:
//
//	devsim -device xaviernx -engine gpu -model WRN-AM -algo BN-Norm -batch 50
//	devsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"edgetta/internal/core"
	"edgetta/internal/device"
	"edgetta/internal/profile"
)

func main() {
	devTag := flag.String("device", "xaviernx", "device tag: ultra96, rpi4, xaviernx")
	engine := flag.String("engine", "cpu", "engine: cpu or gpu")
	model := flag.String("model", "WRN-AM", "model tag: RXT-AM, WRN-AM, R18-AM-AT, MBV2")
	algoName := flag.String("algo", "BN-Norm", "algorithm: No-Adapt, BN-Norm, BN-Opt")
	batch := flag.Int("batch", 50, "adaptation batch size")
	list := flag.Bool("list", false, "list devices and exit")
	flag.Parse()

	if *list {
		for _, d := range device.All() {
			fmt.Printf("%-10s %s — %d MB DRAM\n", d.Tag, d.Name, d.MemBytes>>20)
			for _, e := range d.Engines {
				fmt.Printf("           %s engine: %s (%.1f GMAC/s, %.2f W busy)\n",
					e.Kind, e.Name, e.MACRate, e.PowerBusy)
			}
		}
		return
	}

	d, ok := device.ByTag(*devTag)
	if !ok {
		fatal("unknown device %q", *devTag)
	}
	kind := device.CPU
	if strings.EqualFold(*engine, "gpu") {
		kind = device.GPU
	}
	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		fatal("%v", err)
	}

	p, err := profile.Get(*model)
	if err != nil {
		fatal("%v", err)
	}
	r, err := device.Estimate(d, kind, p, algo, *batch)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(r)
	fmt.Printf("  conv fw %.3fs | bn fw %.3fs | other fw %.3fs | conv bw %.3fs | bn bw %.3fs | other bw %.3fs\n",
		r.Phases.ConvFw, r.Phases.BNFw, r.Phases.OtherFw,
		r.Phases.ConvBw, r.Phases.BNBw, r.Phases.OtherBw)
	if algo != core.NoAdapt {
		overhead, err := device.AdaptOverhead(d, kind, p, algo, *batch)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("  adaptation overhead vs No-Adapt: %.3fs\n", overhead)
	}
	if r.OOM {
		fmt.Println("  NOTE: this configuration exceeds device memory (as the paper reports for some ResNeXt/BN-Opt cells)")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "devsim: "+format+"\n", args...)
	os.Exit(1)
}
