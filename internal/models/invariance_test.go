package models_test

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/nn"
	"edgetta/internal/parallel"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

// TestInvariance is the one table of the model-level bit-identity promises.
// A row is a model under an adapter, fed the same three batches; its
// reference run (one worker, the direct conv kernel, no tracer, a clean
// arena, no clone) is pinned by pinnedDigests. An axis runs every row one
// other way and must give the same bits; a failing cell names the first
// batch and tensor that diverge. The frozen cells hold BN-Opt over an
// unfrozen model to BN-Opt. Cells are TestInvariance/<axis>/<row>, and an
// axis needs its base run: -run 'TestInvariance/(reference|clone)/WRN'. The
// reference runs untraced under EDGETTA_TRACE=1 too. A new promise is one
// more entry in axes.
func TestInvariance(t *testing.T) {
	defer parallel.SetWorkers(0)
	if prior := telemetry.StopTracing(); prior != nil {
		defer telemetry.StartTracing()
	}
	// Every block type and both shortcut kinds — the registry plus
	// MobileNetV2 — under each adapter, then BN-Opt unfrozen, which the
	// frozen cells compare with the row before it.
	var rows []row
	for _, build := range append(models.Registry(), models.MobileNetV2) {
		tag := build(nil, models.ReproScale).Tag
		for _, algo := range core.Algorithms {
			rows = append(rows, row{fmt.Sprintf("%s/%v", tag, algo), build, algo, false})
		}
		rows = append(rows, row{tag + "/BN-Opt+unfrozen", build, core.BNOpt, true})
	}
	runs := map[string][]record{}
	for _, ax := range append([]axis{{name: "reference", workers: 1}}, axes...) {
		recs := make([]record, len(rows))
		runs[ax.name] = recs
		t.Run(ax.name, func(t *testing.T) {
			parallel.SetWorkers(ax.workers)
			if ax.set != nil {
				ax.set(t)
			}
			for i, r := range rows {
				t.Run(r.name, func(t *testing.T) {
					t.Parallel()
					recs[i] = r.stream(t, ax.hook)
					base := cmp.Or(ax.base, "reference")
					switch want := runs[base][i]; {
					case ax.name == "reference":
						if got := recs[i].digests(); got != pinnedDigests[r.name] {
							t.Errorf("reference digests %#x, pinned %#x: if on purpose, re-pin from the table TestInvariance logs", got, pinnedDigests[r.name])
						}
					case want == nil:
						t.Fatalf("no %s run to compare with: name it in -run too", base)
					default:
						if d := firstDiff(want, recs[i], true); d != "" {
							t.Errorf("differs from the %s run: %s", base, d)
						}
					}
				})
			}
		})
	}
	ref := runs["reference"]
	t.Run("frozen", func(t *testing.T) {
		for i, r := range rows {
			if r.unfrozen && ref[i] != nil && ref[i-1] != nil {
				t.Run(r.name, func(t *testing.T) {
					if d := firstDiff(ref[i-1], ref[i], false); d != "" {
						t.Errorf("logits or state differ from %s's: %s", rows[i-1].name, d)
					}
				})
			}
		}
	})
	var table strings.Builder
	for i, r := range rows {
		if d := ref[i].digests(); ref[i] != nil {
			fmt.Fprintf(&table, "\t%-28s {%#016x, %#016x, %#016x},\n", strconv.Quote(r.name)+":", d[0], d[1], d[2])
		}
	}
	t.Logf("reference digests:\n%s", table.String())
}

// pinnedDigests are each reference's per-batch FNV-1a digests of its
// tensors' digests. Every generic twin gives its vector routine's bits, so
// they hold on every GOARCH the tests run on; a change that moves bits on
// purpose re-pins here, and says so.
var pinnedDigests = map[string][3]uint64{
	"RXT-AM/No-Adapt":           {0xca2752069a811ef9, 0xdc490fdc4340597e, 0x1af994c03d67d5ff},
	"RXT-AM/BN-Norm":            {0xbfd7ae5b88779eaf, 0x1c779333e4552b8f, 0x3eb27dcd3e2ae755},
	"RXT-AM/BN-Opt":             {0x156766fd7ad8cd64, 0x6d2963ff8b87612b, 0x9830b5e8218fc088},
	"RXT-AM/BN-Opt+unfrozen":    {0x2b07c0e868a89106, 0xa913bebd90cd62ce, 0x4aebfc53ab3b5602},
	"WRN-AM/No-Adapt":           {0xf98533eb5c088655, 0x8ce39af9acef020d, 0x1535793b5f1f0567},
	"WRN-AM/BN-Norm":            {0x3ed23a02047b0b30, 0xf55021e52b86145e, 0x905d0d1c209b6c04},
	"WRN-AM/BN-Opt":             {0xd9c960f7c07db90c, 0x3c64c84e2f6d956c, 0x4261cf40f3349efb},
	"WRN-AM/BN-Opt+unfrozen":    {0xc6e939cafd53de26, 0x2d09511de29fdef4, 0x983c4ff059e4d635},
	"R18-AM-AT/No-Adapt":        {0x6e130a0f490d993d, 0x0812797bd08388ee, 0x003bf985ad406912},
	"R18-AM-AT/BN-Norm":         {0xd32b0cf697990ced, 0x4b30a51dc32a5178, 0xc8d37350125b1318},
	"R18-AM-AT/BN-Opt":          {0x6aab6b620562ec22, 0x012bd5534fb13029, 0xdf5d00c0399e7db7},
	"R18-AM-AT/BN-Opt+unfrozen": {0xbd63489fce6ee855, 0x1a8703ca6c9c89d7, 0xceb281ccae35118d},
	"MBV2/No-Adapt":             {0xe9954125a7fb072d, 0x85daa9e736bcfe58, 0x8b6a0e79ef6b5d0f},
	"MBV2/BN-Norm":              {0x4f8bc8448571fb61, 0x2813f34bece2d711, 0xc8e913ebad7e20bd},
	"MBV2/BN-Opt":               {0xfe889a6fb417d7cd, 0xd7572fdf037a848f, 0xcea8d2048cd945ef},
	"MBV2/BN-Opt+unfrozen":      {0x773eb5d2bebf9331, 0x00438cff68f20bad, 0xb86855cb12ac2485},
}

type row struct {
	name     string
	build    models.Builder
	algo     core.Algorithm
	unfrozen bool // BN-Opt over an nn.Unfreeze'd model: every gradient computed, only γ/β's read
}

// batches are the inputs of every run. The batch size changes, so a buffer
// kept from one pass is found stale by the next; nine images on eight
// workers make uneven ranges.
var batches = func() (xs []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 9, 2} {
		xs = append(xs, tensor.New(n, 3, 32, 32))
		xs[len(xs)-1].Uniform(rng, 0, 1)
	}
	return xs
}()

// model builds the row's model with every BatchNorm's running statistics,
// γ, β, Eps and Momentum moved off their constructor values, so a field
// that CopyState drops shows.
func (r row) model() *models.Model {
	m := r.build(rand.New(rand.NewSource(5)), models.ReproScale)
	rng := rand.New(rand.NewSource(6))
	for i, bn := range m.BatchNorms() {
		for c := range bn.RunningMean {
			bn.RunningMean[c] = float32(0.1 * rng.NormFloat64())
			bn.RunningVar[c] = float32(0.5 + rng.Float64())
			bn.Gamma.Data[c] = float32(1 + 0.3*rng.NormFloat64())
			bn.Beta.Data[c] = float32(0.3 * rng.NormFloat64())
		}
		bn.Eps, bn.Momentum = 1e-5*float32(2+i%3), 0.15+0.05*float32(i%2)
	}
	return m
}

func (r row) adapt(t *testing.T, m *models.Model) core.Adapter {
	a, err := core.New(r.algo, m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.unfrozen {
		nn.Unfreeze(m.Net)
	}
	return a
}

// between runs before batch b and may swap the stream's model and adapter.
type between func(t *testing.T, r row, m *models.Model, a core.Adapter, b int) (*models.Model, core.Adapter)

// A record holds, per batch, the digest of each tensor the batch left: the
// logits, the adapter's state, then every parameter gradient.
type record [][]digest

type digest struct {
	name string
	sum  uint64
}

// stream runs the row's batches and records them. Gradients are per batch.
func (r row) stream(t *testing.T, hook between) (rec record) {
	m := r.model()
	a := r.adapt(t, m)
	for b, x := range batches {
		if hook != nil {
			m, a = hook(t, r, m, a, b)
		}
		logits := a.Process(x).Data
		if slices.ContainsFunc(logits, func(v float32) bool { return math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) }) {
			t.Errorf("batch %d: a logit is not finite: bit equality would prove nothing", b)
		}
		tensors := []digest{digestOf("logits", logits)}
		if s, ok := a.(core.Stateful); ok {
			_, state, err := core.FlattenState(s.CaptureState())
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range state {
				tensors = append(tensors, digestOf(ts.Name, ts.Data))
			}
		}
		for _, p := range m.Params() {
			tensors = append(tensors, digestOf("grad "+p.Name, p.Grad))
		}
		nn.ZeroGrads(m.Net)
		rec = append(rec, tensors)
	}
	return rec
}

func digestOf(name string, data []float32) digest {
	buf := make([]byte, 0, 4*len(data))
	for _, v := range data {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	h := fnv.New64a()
	h.Write(buf)
	return digest{name, h.Sum64()}
}

func (rec record) digests() (d [3]uint64) {
	for b, tensors := range rec {
		h := fnv.New64a()
		for _, ts := range tensors {
			h.Write(binary.LittleEndian.AppendUint64(nil, ts.sum))
		}
		d[b] = h.Sum64()
	}
	return d
}

// firstDiff names the first batch and tensor where got, a run of the same
// model, leaves want — gradients only if grads — or returns "".
func firstDiff(want, got record, grads bool) string {
	for b, w := range want {
		for i, ts := range w {
			if got[b][i] != ts && (grads || !strings.HasPrefix(ts.name, "grad ")) {
				return fmt.Sprintf("batch %d (%d images): %s", b, batches[b].Dim(0), ts.name)
			}
		}
	}
	return ""
}

// An axis runs every row one other way, on the given number of workers,
// and its runs must match base's ("" is the reference). set, when given,
// switches a process-wide setting for the axis and undoes it with
// t.Cleanup once the rows are done; hook acts before each batch.
type axis struct {
	name, base string
	workers    int
	set        func(t *testing.T)
	hook       between
}

var axes = []axis{
	{name: "workers=2", workers: 2},
	{name: "workers=8", workers: 8},
	{name: "im2col", workers: 1, set: im2col},
	{name: "poison", workers: 1, hook: poison},
	{name: "poison,workers=8", base: "workers=8", workers: 8, hook: poison},
	{name: "tracer", workers: 1, set: traced},
	{name: "clone", workers: 1, hook: cloneMidStream},
	{name: "serialize", workers: 1, hook: serialized},
}

// im2col runs every conv on the im2col + matmul oracle.
func im2col(t *testing.T) {
	was := tensor.PackedEnabled()
	tensor.SetPacked(false)
	t.Cleanup(func() { tensor.SetPacked(was) })
}

// traced runs the rows with the span tracer on.
func traced(t *testing.T) {
	tr := telemetry.StartTracing()
	if tr == nil {
		t.Fatal("StartTracing failed")
	}
	t.Cleanup(func() {
		if telemetry.StopTracing(); tr.Len() == 0 {
			t.Error("the tracer recorded no span")
		}
	})
}

// poison NaN-fills every arena buffer before each batch, and each buffer
// again the moment it is released: nothing may read memory it did not
// write in the same pass, or after its last reader let it go.
func poison(t *testing.T, r row, m *models.Model, a core.Adapter, b int) (*models.Model, core.Adapter) {
	if models.PoisonArena(m) == 0 && b > 0 {
		t.Fatal("the arena holds no buffer to poison")
	}
	return m, a
}

// cloneMidStream carries on from batch 1 with a clone of the model under a
// new adapter, restored to the original's state when it has one.
func cloneMidStream(t *testing.T, r row, m *models.Model, a core.Adapter, b int) (*models.Model, core.Adapter) {
	if b != 1 {
		return m, a
	}
	c := m.Clone()
	ca := r.adapt(t, c)
	if s, ok := a.(core.Stateful); ok {
		ca.(core.Stateful).RestoreState(s.CaptureState())
	}
	return c, ca
}

// serialized carries on from batch 1 with the state captured, flattened,
// unflattened over the episode-start layout and restored after a Reset, so
// every value comes back through the flattened form.
func serialized(t *testing.T, r row, m *models.Model, a core.Adapter, b int) (*models.Model, core.Adapter) {
	s, ok := a.(core.Stateful)
	if !ok {
		t.Skipf("%v keeps no state", r.algo)
	}
	if b != 1 {
		return m, a
	}
	kind, tensors, err := core.FlattenState(s.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	back, err := core.UnflattenState(s.CaptureState(), kind, tensors)
	if err != nil {
		t.Fatal(err)
	}
	s.RestoreState(back)
	return m, a
}
