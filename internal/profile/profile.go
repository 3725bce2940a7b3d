// Package profile captures per-layer execution traces from real model
// forwards. A model's counts live in one place: the Summary folded from the
// Trace of one single-image forward. The trace records, for every leaf
// layer, the operation counts and memory footprint that the device cost
// model charges for — the same quantities the paper extracts with the
// PyTorch Autograd profiler (Figs. 4, 7, 10) and its memory profiler
// (Sec. IV-B).
package profile

import (
	"math/rand"
	"sync"

	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/tensor"
)

// Trace is every leaf layer's spec from one single-image forward, in
// forward order.
type Trace []nn.Spec

// Capture runs a real single-image forward through the model and collects
// every leaf layer's spec. Every recorded quantity but the parameter and
// channel counts is linear in the batch, so internal/device scales the
// per-image summary by the batch it prices.
func Capture(m *models.Model) Trace {
	x := tensor.New(1, m.InC, m.InHW, m.InHW)
	m.Forward(x, false)
	var tr Trace
	nn.Walk(m.Net, func(l nn.Layer) {
		sp := l.Spec()
		if sp.Kind == nn.KindComposite {
			return
		}
		tr = append(tr, sp)
	})
	return tr
}

// Summary aggregates a trace into the totals the device model consumes.
type Summary struct {
	ConvMACs   int64 // convolution MACs (forward)
	GroupMACs  int64 // subset of ConvMACs in grouped convolutions
	LinearMACs int64
	BNElems    int64 // activation elements flowing through BN layers
	BNParams   int64 // gamma+beta count
	ActElems   int64 // activation-function elements: the rectifying BNs' outputs
	SavedElems int64 // elements cached for backward (the dynamic graph)
	Params     int64
	ConvLayers int
	BNLayers   int
	ActLayers  int // BatchNorms that end in a rectifier
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
	for _, l := range t {
		s.Params += l.ParamCount
		s.SavedElems += l.SavedElems
		switch l.Kind {
		case nn.KindConv:
			s.ConvMACs += l.MACs
			if l.Conv.Groups > 1 {
				s.GroupMACs += l.MACs
			}
			s.ConvLayers++
		case nn.KindBN:
			s.BNElems += l.OutElems
			s.BNParams += 2 * l.BNChannels
			s.BNLayers++
			if l.BNChannels >= bigBNChannelThreshold {
				s.BigBNElems += l.OutElems
			}
			if l.Rectifies {
				s.ActElems += l.OutElems
				s.ActLayers++
			}
		case nn.KindLinear:
			s.LinearMACs += l.MACs
		}
	}
	return s
}

// ModelProfile is everything the device simulator knows about a model: its
// single-image trace and the summary folded from it.
type ModelProfile struct {
	Tag     string
	Trace   Trace
	Summary Summary // per single image
}

// New profiles the model with one single-image forward.
func New(m *models.Model) *ModelProfile {
	tr := Capture(m)
	return &ModelProfile{Tag: m.Tag, Trace: tr, Summary: tr.Summarize()}
}

// cache memoizes full-scale profiles: capturing ResNeXt-29 runs a ~1 GMAC
// forward, which is worth doing once per process.
var (
	cacheMu sync.Mutex
	cache   = map[string]*ModelProfile{}
)

// Get profiles (or returns the cached profile of) the full-scale model with
// the given tag.
func Get(tag string) (*ModelProfile, error) {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache[tag]; ok {
		return p, nil
	}
	// Weights affect none of the profiled quantities; any seed gives the
	// same profile.
	m, err := models.ByTag(tag, rand.New(rand.NewSource(1)), models.Full)
	if err != nil {
		return nil, err
	}
	p := New(m)
	cache[tag] = p
	return p, nil
}
