// Package profile captures per-layer execution traces from real model
// forwards. The trace records, for every leaf layer, the operation counts
// and memory footprint that the device cost model charges for — the same
// quantities the paper extracts with the PyTorch Autograd profiler
// (Figs. 4, 7, 10) and its memory profiler (Sec. IV-B).
package profile

import (
	"sync"

	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// Trace is a per-layer record of one forward pass.
type Trace struct {
	ModelTag string
	Batch    int
	Layers   []nn.Spec
}

// Capture runs a real single-image forward through the model and collects
// every leaf layer's spec. Every recorded quantity but the parameter and
// channel counts is linear in the batch, so internal/device scales the
// per-image summary by the batch it prices.
func Capture(m *models.Model) Trace {
	x := tensor.New(1, m.InC, m.InHW, m.InHW)
	m.Forward(x, false)
	tr := Trace{ModelTag: m.Tag, Batch: 1}
	nn.Walk(m.Net, func(l nn.Layer) {
		sp := l.Spec()
		if sp.Kind == nn.KindComposite {
			return
		}
		tr.Layers = append(tr.Layers, sp)
	})
	return tr
}

// Summary aggregates a trace into the totals the device model consumes.
type Summary struct {
	ConvMACs   int64 // convolution MACs (forward)
	GroupMACs  int64 // subset of ConvMACs in grouped convolutions
	LinearMACs int64
	BNElems    int64 // activation elements flowing through BN layers
	BNChannels int64 // total BN channels
	BNParams   int64 // gamma+beta count
	ActElems   int64 // activation-function elements
	PoolElems  int64
	SavedElems int64 // elements cached for backward (the dynamic graph)
	Params     int64
	ConvLayers int
	BNLayers   int
	ActLayers  int
	// BigBNElems is the subset of BNElems in layers with ≥ 1024 channels,
	// which hit the modeled GPU batch-norm performance cliff (Fig. 10a).
	BigBNElems int64
}

// bigBNChannelThreshold marks BN layers wide enough to hit the modeled GPU
// cliff; of the study's models only ResNeXt-29 has such layers.
const bigBNChannelThreshold = 1024

// Summarize folds a trace into totals.
func (t Trace) Summarize() Summary {
	var s Summary
	for _, l := range t.Layers {
		s.Params += l.ParamCount
		s.SavedElems += l.SavedElems
		switch l.Kind {
		case nn.KindConv:
			s.ConvMACs += l.MACs
			s.ConvLayers++
		case nn.KindBN:
			s.BNElems += l.OutElems
			s.BNChannels += l.BNChannels
			s.BNParams += 2 * l.BNChannels
			s.BNLayers++
			if l.BNChannels >= bigBNChannelThreshold {
				s.BigBNElems += l.OutElems
			}
		case nn.KindLinear:
			s.LinearMACs += l.MACs
		case nn.KindAct:
			s.ActElems += l.OutElems
			s.ActLayers++
		case nn.KindPool:
			s.PoolElems += l.OutElems
		}
	}
	return s
}

// GroupedConvMACs returns the MACs of a batch's grouped convolutions, read
// off the model's layer tree after a forward: Spec records no group count,
// which keeps Trace serializable-simple.
func GroupedConvMACs(m *models.Model, batch int) int64 {
	var total int64
	nn.Walk(m.Net, func(l nn.Layer) {
		if c, ok := l.(*nn.Conv2d); ok && c.Groups > 1 {
			total += c.Spec().MACs
		}
	})
	return total * int64(batch)
}

// cache memoizes full-scale traces: capturing ResNeXt-29 runs a ~0.85
// GMAC forward, which is worth doing once per process.
var (
	cacheMu sync.Mutex
	cache   = map[string]*ModelProfile{}
)

// ModelProfile bundles everything the device simulator needs about a model
// at batch size 1.
type ModelProfile struct {
	Tag       string
	Trace     Trace
	Summary   Summary // per single image
	GroupMACs int64   // per single image
	Stats     models.Stats
}

// Get captures (or returns the cached) profile of the full-scale model
// with the given tag.
func Get(tag string) (*ModelProfile, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache[tag]; ok {
		return p, nil
	}
	m, err := models.ByTag(tag, newDeterministicRand(), models.Full)
	if err != nil {
		return nil, err
	}
	tr := Capture(m)
	p := &ModelProfile{
		Tag:       tag,
		Trace:     tr,
		Summary:   tr.Summarize(),
		GroupMACs: GroupedConvMACs(m, 1),
		Stats:     m.Stats(),
	}
	cache[tag] = p
	return p, nil
}
