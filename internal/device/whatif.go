package device

import "fmt"

// This file implements the "what-if" analyses behind the paper's
// architecture-algorithm insights (Sec. IV-G): hypothetical hardware
// variants — a BN-adaptation accelerator, a backprop-capable accelerator,
// FPGA PL offload, bigger memory — expressed as transformations of the
// calibrated engine models, so the simulator can price the paper's
// proposed co-design directions.

// Variant transforms a device into a hypothetical one.
type Variant func(*Device)

// WithBNAccelerator models the custom hardware the paper proposes for
// "fast BN-based adaptation": batch-statistics BN forward and BN backward
// run factor× faster on every engine.
func WithBNAccelerator(factor float64) Variant {
	return func(d *Device) {
		d.Name += fmt.Sprintf(" + BN-accel ×%.0f", factor)
		for i := range d.Engines {
			d.Engines[i].BNTrainRate *= factor
			d.Engines[i].BNBwRate *= factor
			// A dedicated reduction engine has no wide-layer cliff.
			d.Engines[i].BigBNCliff = 1
		}
	}
}

// WithBackpropAccelerator models "additional MACs and routing fabric
// [that] would make back propagation less costly" (insight v): the
// backward pass approaches forward cost.
func WithBackpropAccelerator(bwMult float64) Variant {
	return func(d *Device) {
		d.Name += fmt.Sprintf(" + bw-accel (bw=%.1fx fw)", bwMult)
		for i := range d.Engines {
			if d.Engines[i].BwMult > bwMult {
				d.Engines[i].BwMult = bwMult
			}
		}
	}
}

// WithPLOffload models offloading the training kernels to the Ultra96's
// unused programmable-logic side (Sec. IV-B: "use of PL side of the FPGA
// to offload training kernels can be explored"): convolution backward and
// BN reductions run on a modest PL accelerator in parallel with the PS.
func WithPLOffload(plGMACs float64) Variant {
	return func(d *Device) {
		d.Name += fmt.Sprintf(" + PL offload (%.0f GMAC/s)", plGMACs)
		for i := range d.Engines {
			e := &d.Engines[i]
			// Backward conv migrates to the PL: effective multiplier is the
			// ratio of PS forward rate to PL rate.
			e.BwMult = e.MACRate / plGMACs
			if e.BwMult < 0.5 {
				e.BwMult = 0.5 // PCIe/AXI transfer floor
			}
			// BN reductions pipeline well on the PL.
			e.BNTrainRate *= 4
			e.BNBwRate *= 4
		}
	}
}

// WithMemory models "low power memories including nonvolatile and 3D
// [that] would enable larger batch sizes" (insight v).
func WithMemory(bytes int64) Variant {
	return func(d *Device) {
		d.Name += fmt.Sprintf(" + %dGB DRAM", bytes>>30)
		d.MemBytes = bytes
	}
}

// Hypothetical applies variants to a copy of the base device, leaving the
// calibrated model untouched.
func Hypothetical(base *Device, variants ...Variant) *Device {
	cp := *base
	cp.Engines = append([]Engine(nil), base.Engines...)
	for _, v := range variants {
		v(&cp)
	}
	cp.Tag = base.Tag + "-whatif"
	return &cp
}
