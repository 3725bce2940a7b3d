package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/serialize"
	"edgetta/internal/tensor"
)

// The constants of every run. None is a flag: a run that differs in any of
// them is a different benchmark.
const (
	// kernelWidth pins the parallel pool. Width 2 (= GOMAXPROCS here) gave
	// ±10 % pass-mean spread on a shared 2-vCPU box, width 1 ±5 %.
	kernelWidth = 1
	// maxProcs caps GOMAXPROCS at min(maxProcs, nproc): one P for the
	// kernels, one for the load drivers, HTTP goroutines and the GC.
	maxProcs = 2
	// passSeconds is the nominal length of one pass; -seconds/passSeconds
	// is the number of timed passes. Work per pass is fixed, so the wall
	// time of a run follows the machine, never the other way round.
	passSeconds = 3
	// setupReps is how many times a run sets up from scratch; setup_s is
	// the median.
	setupReps = 3
	// replayOps is how many leading ops of every serve stream are replayed
	// through a private serial adapter after the timed section.
	replayOps = 32
	// datasetSeed fixes SynCIFAR's class templates: the committed weights
	// were trained on this dataset. -seed varies the sampled streams only.
	datasetSeed = 2024
	severity    = 5 // the paper's setting
)

// corruptions is one per CIFAR-10-C family (noise, blur, weather,
// digital); stream k of a workload draws from corruptions[k%4].
var corruptions = []data.Corruption{data.GaussianNoise, data.DefocusBlur, data.Fog, data.JPEG}

type kind int

const (
	adaptKind  kind = iota // a private core.Adapter, Reset between streams
	httpKind               // serve.Server behind httpapi over loopback
	inprocKind             // serve.Server driven through serve.Stream
)

// workload is one fixed set of inputs and the system it drives.
type workload struct {
	name  string
	why   string
	kind  kind
	model string
	algo  core.Algorithm
	// batch images per op; streams × ops ops per pass. Sized so a pass
	// takes a little over passSeconds on the reference box.
	batch, streams, ops int
	// drivers is the number of load goroutines (serve kinds).
	drivers int
	// minAcc is the sanity floor for top1_acc_pct; below it the run is
	// incorrect whatever the timings say.
	minAcc float64
}

var workloads = []workload{
	{
		name: "adapt_bnopt_wrn", kind: adaptKind, model: "WRN-AM", algo: core.BNOpt,
		batch: 50, streams: 4, ops: 5, minAcc: 85,
		why: "backward-dominated (conv dW/dX, BN backward, Adam) on the direct packed conv path: backward-kernel and frozen-aware-backward work must show here",
	},
	{
		name: "adapt_bnnorm_rxt", kind: adaptKind, model: "RXT-AM", algo: core.BNNorm,
		batch: 50, streams: 4, ops: 11, minAcc: 85,
		why: "forward-only, grouped convs on the im2col path, BN-heavy: shows conv-forward and batch-stat BN work, must not move for a backward-only change",
	},
	{
		name: "serve_http_stateful", kind: httpKind, model: "WRN-AM", algo: core.BNNorm,
		batch: 8, streams: 2, ops: 280, drivers: 2, minAcc: 70,
		why: "2 closed-loop HTTP sessions at batch 8: wire codec, admission, per-stream state swap and the supervised dispatch hop are a large share of each request",
	},
	{
		name: "serve_inproc_coalesce", kind: inprocKind, model: "WRN-AM", algo: core.NoAdapt,
		batch: 4, streams: 8, ops: 160, drivers: 2, minAcc: 50,
		why: "8 in-process No-Adapt streams coalesced across streams: no state swap and no wire, so a gain for either that costs the batcher shows",
	},
}

func (w workload) opsPerPass() int    { return w.streams * w.ops }
func (w workload) imagesPerPass() int { return w.opsPerPass() * w.batch }

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// weightsFile is where -train writes, and every run loads, a model's
// repro-scale weights.
func weightsFile(dir, tag string) string {
	return filepath.Join(dir, strings.ToLower(tag)+".bin")
}

// loadModel builds the repro-scale architecture and loads its committed
// weights. There is no retrain fallback: a benchmark that silently trained
// a different model would report a different top1_acc_pct and setup_s.
func loadModel(dir, tag string) (*models.Model, error) {
	m, err := models.ByTag(tag, rand.New(rand.NewSource(1)), models.ReproScale)
	if err != nil {
		return nil, err
	}
	if err := serialize.LoadFile(weightsFile(dir, tag), m); err != nil {
		return nil, fmt.Errorf("load %s weights: %w\nregenerate them with: go run ./bench -train", tag, err)
	}
	return m, nil
}

// batchIn is one pregenerated op input.
type batchIn struct {
	x      *tensor.Tensor
	labels []int
}

// inputs holds a pass's ops, [stream][op]. Every pass replays the same
// inputs, so every pass does bit-identical work.
type inputs [][]batchIn

// firstOps is the first op of the first n streams: the set-up's one push
// through a fresh system.
func (in inputs) firstOps(n int) inputs {
	out := make(inputs, n)
	for k := range out {
		out[k] = in[k][:1]
	}
	return out
}

// makeInputs draws the pass from -seed: stream k is its own seeded
// data.Stream of one corruption family at severity 5.
func makeInputs(w workload, seed int64) inputs {
	gen := data.NewGenerator(datasetSeed)
	in := make(inputs, w.streams)
	for k := range in {
		s := gen.NewStream(seed*1009+int64(k), w.ops*w.batch, corruptions[k%len(corruptions)], severity)
		in[k] = make([]batchIn, w.ops)
		for i := range in[k] {
			x, labels, _ := s.Next(w.batch)
			in[k][i] = batchIn{x, labels}
		}
	}
	return in
}

// opRecord is what one pass observes about its ops, indexed
// stream*ops+op. Concurrent drivers write disjoint indices, so a pass
// needs no lock and adds no synchronization to the timed path.
type opRecord struct {
	start []time.Time
	lat   []time.Duration
	sum   []uint64 // logitsSum of the op's output; 0 = no output
	hits  []int    // correct top-1 predictions
	err   []error
}

func newOpRecord(n int) *opRecord {
	return &opRecord{
		start: make([]time.Time, n), lat: make([]time.Duration, n),
		sum: make([]uint64, n), hits: make([]int, n), err: make([]error, n),
	}
}

// observe files one finished op.
func (r *opRecord) observe(i int, t0 time.Time, logits *tensor.Tensor, labels []int, err error) {
	r.start[i], r.lat[i], r.err[i] = t0, time.Since(t0), err
	r.sum[i], r.hits[i] = 0, 0
	if err != nil {
		return
	}
	r.sum[i] = logitsSum(logits)
	for j, p := range logits.ArgmaxRows() {
		if p == labels[j] {
			r.hits[i]++
		}
	}
}

// logitsSum is a 64-bit FNV-1a over the float32 bit patterns: two outputs
// with equal sums are byte-identical for every purpose of this benchmark.
// A non-finite logit hashes to 0, which never matches a reference.
func logitsSum(t *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t.Data {
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			return 0
		}
		b := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(b>>s) & 0xff
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// system is a workload's system under test, driven one pass at a time.
type system interface {
	// pass runs every op of in once, from fresh adaptation state, filing
	// op i of stream k at rec index k*len(in[k])+i.
	pass(in inputs, rec *opRecord)
	close() error
}

// adaptSystem is the paper's protocol: one private adapter, Reset before
// each corruption stream.
type adaptSystem struct {
	m *models.Model // the adapter's private clone
	a core.Adapter
}

func (s *adaptSystem) pass(in inputs, rec *opRecord) {
	for k, stream := range in {
		s.a.Reset()
		for i, b := range stream {
			t0 := time.Now()
			logits := s.a.Process(b.x)
			rec.observe(k*len(stream)+i, t0, logits, b.labels, nil)
		}
	}
}

func (s *adaptSystem) close() error { return nil }
