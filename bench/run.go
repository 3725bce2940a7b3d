package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/serve"
	"edgetta/internal/telemetry"
)

// runOpts is one invocation.
type runOpts struct {
	w        workload
	seed     int64
	passes   int
	weights  string // directory of the committed weights
	traceOut string // Chrome trace path, traced run only
	short    bool   // test smoke: fewer micro-measurement repetitions
}

// pinRuntime fixes the two widths every run is measured at and returns
// them for the report.
func pinRuntime() (procs, width int) {
	procs = runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	parallel.SetWorkers(kernelWidth)
	// A tracer installed by EDGETTA_TRACE=1 would turn every layer hook on
	// for the whole run; the traced run installs its own.
	telemetry.StopTracing()
	return procs, kernelWidth
}

// instance is a set-up workload: model, inputs and system under test.
type instance struct {
	w     workload
	model *models.Model
	in    inputs
	sys   system
	// srv and key are the serve kinds' server and group, for the traced
	// run's snapshots and extra requests; nil and zero on adapt kinds.
	srv *serve.Server
	key serve.GroupKey
}

// setupTimes are the per-layer set-up measurements of one set-up.
type setupTimes struct {
	load, addGroup, corrupt, total time.Duration
}

// setUp does everything a run needs before its first timed op: load the
// committed weights, pregenerate the pass's inputs, build the system under
// test, and push one op through it (so work deferred to a first call is
// set-up too). sp may be nil.
func setUp(o runOpts, sp *spans) (*instance, setupTimes, error) {
	var st setupTimes
	w := o.w
	begin := time.Now()

	t0 := time.Now()
	m, err := loadModel(o.weights, w.model)
	if err != nil {
		return nil, st, err
	}
	st.load = sp.add("serialize.LoadFile", t0)

	t0 = time.Now()
	in := makeInputs(w, o.seed)
	st.corrupt = sp.add("data.Generator.NewStream+Stream.Next", t0)

	inst := &instance{w: w, model: m, in: in}
	switch w.kind {
	case adaptKind:
		t0 = time.Now()
		clone := m.Clone()
		sp.add("models.Model.Clone", t0)
		a, err := core.New(w.algo, clone, core.Config{})
		if err != nil {
			return nil, st, err
		}
		inst.sys = &adaptSystem{m: clone, a: a}
	case httpKind, inprocKind:
		t0 = time.Now()
		srv, key, err := newServer(w, m)
		if err != nil {
			return nil, st, err
		}
		st.addGroup = sp.add("serve.New+Server.AddGroup", t0)
		inst.srv, inst.key = srv, key
		if w.kind == inprocKind {
			inst.sys = &inprocSystem{w: w, srv: srv, key: key}
			break
		}
		hs, err := newHTTPSystem(w, srv)
		if err != nil {
			srv.Close()
			return nil, st, err
		}
		inst.sys = hs
	}

	// The first op: one batch per load driver through the fresh system.
	t0 = time.Now()
	first := in.firstOps(max(1, w.drivers))
	rec := newOpRecord(len(first))
	inst.sys.pass(first, rec)
	sp.add("first op", t0)
	for _, err := range rec.err {
		if err != nil {
			inst.sys.close()
			return nil, st, fmt.Errorf("first op: %w", err)
		}
	}
	st.total = time.Since(begin)
	return inst, st, nil
}

// cpuTime is the process's user+sys CPU so far; maxRSSMB its resident-set
// high-water mark (ru_maxrss is VmHWM, in KB on Linux).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// resetMaxRSS restarts the high-water mark at the current resident set, so
// each pass reports its own peak. The process-wide mark is the maximum of
// a GC-paced sawtooth over the whole run and swung ±4 % run to run; the
// median of per-pass peaks does not. Where the kernel refuses the write
// every pass reads the process-wide mark, which is then what is reported.
func resetMaxRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// tally folds passes into the run's op counts: an op fails on an error, a
// missing or non-finite output, or an output that differs from the same op
// of the reference pass.
type tally struct {
	ref       []uint64 // per-op output sums of the reference (warm-up) pass
	refHits   int
	attempted int
	failed    int
	firstErr  error
	lat       []time.Duration // pooled over counted passes
}

// setRef takes the warm-up pass as the reference every later pass must
// reproduce bit for bit. Its own failures count: a run whose warm-up
// failed has nothing to compare against.
func (t *tally) setRef(rec *opRecord) {
	t.ref = append([]uint64(nil), rec.sum...)
	t.refHits = 0
	for i := range rec.sum {
		t.refHits += rec.hits[i]
		if rec.err[i] != nil || rec.sum[i] == 0 {
			t.fail(i, rec.err[i], "reference pass produced no finite output")
		}
	}
}

func (t *tally) fail(op int, err error, why string) {
	t.failed++
	if t.firstErr == nil {
		if err != nil {
			t.firstErr = fmt.Errorf("op %d: %w", op, err)
		} else {
			t.firstErr = fmt.Errorf("op %d: %s", op, why)
		}
	}
}

// count folds one timed pass.
func (t *tally) count(rec *opRecord) {
	for i := range rec.sum {
		t.attempted++
		switch {
		case rec.err[i] != nil:
			t.fail(i, rec.err[i], "")
		case rec.sum[i] != t.ref[i]:
			t.fail(i, nil, "output differs from the reference pass")
		}
	}
	t.lat = append(t.lat, rec.lat...)
}

// timedRun is the gated, untraced run: setupReps set-ups, one warm-up
// pass, then o.passes identical timed passes.
func timedRun(o runOpts, log io.Writer) (result, error) {
	procs, width := pinRuntime()
	w := o.w

	var inst *instance
	setups := make([]float64, setupReps)
	for i := range setups {
		if inst != nil {
			if err := inst.sys.close(); err != nil {
				return result{}, err
			}
			inst = nil
			runtime.GC() // keep the high-water mark at one set-up, not three
		}
		var st setupTimes
		var err error
		if inst, st, err = setUp(o, nil); err != nil {
			return result{}, err
		}
		setups[i] = st.total.Seconds()
	}
	defer func() { inst.sys.close() }()

	rec := newOpRecord(w.opsPerPass())
	var t tally
	warm := time.Now()
	inst.sys.pass(inst.in, rec)
	warmup := time.Since(warm)
	t.setRef(rec)

	runtime.GC()
	walls, rss := make([]float64, o.passes), make([]float64, o.passes)
	resetMaxRSS()
	cpu0 := cpuTime()
	for p := range walls {
		t0 := time.Now()
		inst.sys.pass(inst.in, rec)
		walls[p] = time.Since(t0).Seconds()
		t.count(rec)
		rss[p] = maxRSSMB()
		resetMaxRSS()
	}
	cpu := cpuTime() - cpu0

	if err := verify(inst, &t); err != nil {
		t.fail(-1, err, "")
	}

	images := float64(w.imagesPerPass())
	lat := ms(t.lat)
	p10, p50 := quantile(lat, 0.10), quantile(lat, 0.50)
	acc := 100 * float64(t.refHits) / images
	values := map[string]float64{
		"setup_s":          median(setups),
		"images_per_s":     images / median(walls),
		"batch_p50_ms":     p50,
		"batch_p10_ms":     p10,
		"cpu_ms_per_image": durMS(cpu) / (images * float64(o.passes)),
		"peak_rss_mb":      median(rss),
		"top1_acc_pct":     acc,
	}
	res := result{Attempted: t.attempted, Failed: t.failed, Metrics: fill(endToEnd, values)}
	res.Correct = t.failed == 0 && acc >= w.minAcc

	fmt.Fprintf(log, "workload %s seed %d: GOMAXPROCS=%d kernel width=%d passes=%d ops/pass=%d images/pass=%d\n",
		w.name, o.seed, procs, width, o.passes, w.opsPerPass(), w.imagesPerPass())
	fmt.Fprintf(log, "set-ups %.4v s, warm-up pass %.3f s, pass walls %.4v s, pass peak RSS %.4v MB\n",
		setups, warmup.Seconds(), walls, rss)
	fmt.Fprintf(log, "op latency over %d samples: p10 %.3f p50 %.3f p95 %.3f max %.3f ms (p95 and max are diagnostics)\n",
		len(lat), p10, p50, quantile(lat, 0.95), quantile(lat, 1))
	fmt.Fprintf(log, "top-1: %d of %d images correct per pass, error %.3f %%\n", t.refHits, w.imagesPerPass(), 100-acc)
	printMetrics(log, endToEnd, res.Metrics, nil)
	if t.firstErr != nil {
		fmt.Fprintf(log, "FAILED ops %d of %d; first: %v\n", t.failed, t.attempted, t.firstErr)
	} else if !res.Correct {
		fmt.Fprintf(log, "FAILED: top1_acc_pct %.2f below the workload's floor %.0f\n", acc, w.minAcc)
	}
	return res, nil
}

// printMetrics prints every metric by name with its unit. applies, when
// non-nil, marks the metrics the workload measured; the rest print n/a.
func printMetrics(log io.Writer, defs []metricDef, ms map[string]metric, applies map[string]float64) {
	for _, d := range defs {
		if _, ok := applies[d.name]; applies != nil && !ok {
			fmt.Fprintf(log, "  %-30s %14s %s\n", d.name, "n/a", d.unit)
			continue
		}
		fmt.Fprintf(log, "  %-30s %14.4f %s\n", d.name, ms[d.name].Value, d.unit)
	}
}
