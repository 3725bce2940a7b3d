package core

import (
	"fmt"

	"edgetta/internal/models"
	"edgetta/internal/opt"
)

// segment names one run of an adapter's state vector.
type segment struct {
	name string
	n    int
}

// layout is the one definition of what an adapter mutates: per BatchNorm
// layer γ, β, running mean and running variance, then — for BN-Opt — Adam's
// two moment estimates per parameter and its step count (opt.Adam's
// AppendState order). It is built once per adapter and never changes, so
// every state captured from the adapter shares it.
type layout struct {
	kind  string
	segs  []segment
	bnLen int // length of the BatchNorm prefix; whatever follows is Adam's
	size  int
}

func (l *layout) add(name string, n int) {
	l.segs = append(l.segs, segment{name, n})
	l.size += n
}

// AdapterState is one stream's adaptation state: a single vector of
// float32 over the layout of the adapter it was captured from. The
// adaptation algorithms only ever mutate BatchNorm state and — for BN-Opt —
// optimizer moments, so it is small (kilobytes) next to the model it
// adapts (megabytes). That asymmetry is what lets the serving layer share a
// few model replicas among many streams: each stream keeps only its state,
// and a replica swaps stream states in and out between Process calls.
//
// A state is immutable once captured: nothing writes the vector again, so
// one value may be held by any number of streams (every stream of a serving
// group starts from the same episode-start state).
type AdapterState struct {
	layout *layout
	vec    []float32
}

// Stateful is implemented by adapters whose Process mutates adaptation
// state. CaptureState and RestoreState bracket a Process call to multiplex
// independent streams over one shared adapter: restore stream A's state,
// process A's batch, capture the updated state, and the adapter is free for
// stream B. Process is deterministic given (frozen weights, restored state,
// input), so a stream served this way is byte-identical to one that owned
// a private adapter — the serving determinism contract.
//
// Adapters that do not implement Stateful (No-Adapt) are stateless: their
// Process has no side effects that influence outputs, so requests from
// different streams may share — or even be coalesced into — Process calls.
type Stateful interface {
	Adapter
	// CaptureState copies the current adaptation state out.
	CaptureState() *AdapterState
	// RestoreState installs a previously captured state. The state must
	// have been captured from an adapter of the same algorithm over a
	// replica of the same model: a state of any other length panics, and
	// the panic comes before the first write, so the adapter is untouched.
	RestoreState(*AdapterState)
}

// tracked is the state half of BN-Norm and BN-Opt: the model armed for
// batch statistics, the layout of what adapting it mutates, and the
// episode-start state Reset returns to. live is the BatchNorm prefix of the
// vector in the model's own memory, one slice per segment in layout order.
type tracked struct {
	m      *models.Model
	layout *layout
	live   [][]float32
	optim  *opt.Adam // BN-Opt only: its state is the vector's tail
	source *AdapterState
}

// track switches every BatchNorm layer of m to batch statistics and lays
// out the state that adapting it will mutate.
func track(m *models.Model, optim *opt.Adam) tracked {
	t := tracked{m: m, layout: &layout{kind: StateKindBN}, optim: optim}
	l := t.layout
	for i, bn := range m.BatchNorms() {
		bn.UseBatchStats = true
		t.live = append(t.live, bn.Gamma.Data, bn.Beta.Data, bn.RunningMean, bn.RunningVar)
		for _, part := range []string{"gamma", "beta", "rmean", "rvar"} {
			l.add(fmt.Sprintf("bn.%d.%s", i, part), bn.C)
		}
	}
	l.bnLen = l.size
	if optim != nil {
		l.kind = StateKindBNOpt
		for i, p := range optim.Params() {
			l.add(fmt.Sprintf("adam.m.%d", i), len(p.Data))
			l.add(fmt.Sprintf("adam.v.%d", i), len(p.Data))
		}
		l.add("adam.t", 1)
	}
	t.source = t.CaptureState()
	return t
}

// CaptureState implements Stateful.
func (t *tracked) CaptureState() *AdapterState {
	v := make([]float32, 0, t.layout.size)
	for _, run := range t.live {
		v = append(v, run...)
	}
	if t.optim != nil {
		v = t.optim.AppendState(v)
	}
	return &AdapterState{t.layout, v}
}

// RestoreState implements Stateful.
func (t *tracked) RestoreState(s *AdapterState) {
	if s == nil || len(s.vec) != t.layout.size {
		panic(fmt.Sprintf("core: the %s state of %s is %d values long, the state to restore is not",
			t.layout.kind, t.m.Tag, t.layout.size))
	}
	v := s.vec
	for _, run := range t.live {
		v = v[copy(run, v):]
	}
	if t.optim != nil {
		t.optim.LoadState(v)
	}
}

// Reset implements Adapter: back to the state captured at construction.
func (t *tracked) Reset() { t.RestoreState(t.source) }
