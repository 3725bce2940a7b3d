package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/device"
	"edgetta/internal/nn"
	"edgetta/internal/opt"
	"edgetta/internal/parallel"
	"edgetta/internal/profile"
	"edgetta/internal/serialize"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/tensor"
)

// microMetrics times single layers through their public functions, on
// private clones so the system under test is untouched. Each measurement
// is the median of reps calls and leaves a span. Which groups run follows
// the prediction table in the README: a metric is measured on the
// workloads it is predicted to move.
func microMetrics(v map[string]float64, inst *instance, o runOpts, sp *spans, t *tally, rec *opRecord, plain phase) error {
	w := inst.w
	reps := 9
	if o.short {
		reps = 2
	}
	x := inst.in[0][0].x
	timed := func(name string, fn func()) time.Duration {
		t0 := time.Now()
		d := timeReps(reps, fn)
		sp.put(name, t0, time.Since(t0), -1, -1, 0)
		return d
	}

	v["models.clone_ms"] = durMS(timed("models.Model.Clone", func() { inst.model.Clone() }))

	// Eval-mode forward at the workload's batch: the No-Adapt cost every
	// algorithm's overhead is quoted against.
	eval := inst.model.Clone()
	if _, err := core.New(core.NoAdapt, eval, core.Config{}); err != nil {
		return err
	}
	fwd := timed("models.Model.Forward(eval)", func() { eval.Forward(x, false) })
	v["models.forward_eval_ms"] = durMS(fwd)
	if w.kind == adaptKind {
		v["core.adapt_over_infer"] = v["core.process_p50_ms"] / durMS(fwd)
	}

	kernelMetrics(v, timed, w.model == "WRN-AM")

	if w.algo == core.BNOpt {
		if err := backwardMetrics(v, inst, timed, x); err != nil {
			return err
		}
		// One extra pass at pool width 2: a diagnostic, and a check of the
		// repo's promise that width never changes a bit of output.
		parallel.SetWorkers(2)
		t0 := time.Now()
		inst.sys.pass(inst.in, rec)
		wall := time.Since(t0)
		parallel.SetWorkers(kernelWidth)
		sp.put("pass at kernel width 2", t0, wall, -1, -1, 0)
		t.count(rec)
		v["parallel.w2_speedup"] = median(plain.walls) / wall.Seconds()

		p, err := profile.Get(w.model)
		if err != nil {
			return err
		}
		var r device.Report
		v["device.estimate_us"] = durUS(timed("device.Estimate", func() {
			r, err = device.Estimate(device.RPi4(), device.CPU, p, w.algo, w.batch)
		}))
		if err != nil {
			return err
		}
		v["device.bw_share_pred"] = (r.Phases.ConvBw + r.Phases.BNBw + r.Phases.OtherBw) / r.Phases.Total()
	}

	if w.kind == httpKind {
		if err := stateMetrics(v, inst, timed, x); err != nil {
			return err
		}
	}
	return nil
}

// kernelMetrics times the bare kernels behind the conv layers, at the
// shapes of the repository's kernel benchmarks: the direct packed path
// (WRN's) or the im2col + matmul path (RXT's grouped convs).
func kernelMetrics(v map[string]float64, timed func(string, func()) time.Duration, direct bool) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(8, 32, 32, 32)
	x.Randn(rng, 1)
	conv3 := nn.NewConv2d("c3", rng, 32, 32, 3, 1, 1, 1)
	if direct {
		v["tensor.conv3x3_direct_ms"] = durMS(timed("nn.Conv2d.Forward 3x3 direct", func() { conv3.Forward(x, false) }))
		x1 := tensor.New(8, 64, 16, 16)
		x1.Randn(rng, 1)
		conv1 := nn.NewConv2d("c1", rng, 64, 64, 1, 1, 0, 1)
		v["tensor.conv1x1_ms"] = durMS(timed("nn.Conv2d.Forward 1x1", func() { conv1.Forward(x1, false) }))
		return
	}
	was := tensor.PackedEnabled()
	tensor.SetPacked(false)
	v["tensor.conv3x3_im2col_ms"] = durMS(timed("nn.Conv2d.Forward 3x3 im2col", func() { conv3.Forward(x, false) }))
	tensor.SetPacked(was)
	a, b := tensor.New(256, 256), tensor.New(256, 256)
	a.Randn(rng, 1)
	b.Randn(rng, 1)
	v["tensor.matmul256_ms"] = durMS(timed("tensor.MatMul 256", func() { tensor.MatMul(a, b) }))
}

// backwardMetrics splits one BN-Opt step into its calls: entropy loss,
// model backward, Adam step.
func backwardMetrics(v map[string]float64, inst *instance, timed func(string, func()) time.Duration, x *tensor.Tensor) error {
	m := inst.model.Clone()
	if _, err := core.New(core.BNOpt, m, core.Config{}); err != nil { // arms batch-statistics BN
		return err
	}
	var params []*nn.Param
	for _, bn := range m.BatchNorms() {
		params = append(params, bn.Gamma, bn.Beta)
	}
	adam := opt.NewAdam(params, 1e-3)
	logits := m.Forward(x, false)
	var grad *tensor.Tensor
	v["nn.entropy_us"] = durUS(timed("nn.MeanEntropy", func() { _, grad = nn.MeanEntropy(logits) }))
	v["models.backward_ms"] = durMS(timed("models.Model.Backward", func() {
		nn.ZeroGrads(m.Net)
		m.Backward(grad)
	}))
	v["opt.adam_step_us"] = durUS(timed("opt.Adam.Step", adam.Step))
	return nil
}

// stateMetrics times what a stateful serve group pays per request beyond
// Process: swapping a stream's adaptation state in and out, and what a
// checkpoint of it costs to write and read.
func stateMetrics(v map[string]float64, inst *instance, timed func(string, func()) time.Duration, x *tensor.Tensor) error {
	a, err := core.New(inst.w.algo, inst.model.Clone(), core.Config{})
	if err != nil {
		return err
	}
	sa, ok := a.(core.Stateful)
	if !ok {
		return fmt.Errorf("%s is not stateful", inst.w.algo)
	}
	sa.Process(x)
	state := sa.CaptureState()
	v["core.state_swap_us"] = durUS(timed("core.Stateful.RestoreState+CaptureState", func() {
		sa.RestoreState(state)
		state = sa.CaptureState()
	}))
	kind, flat, err := core.FlattenState(state)
	if err != nil {
		return err
	}
	tensors := make([]serialize.Tensor, len(flat))
	bytesTotal := 0
	for i, f := range flat {
		tensors[i] = serialize.Tensor{Name: f.Name, Data: f.Data}
		bytesTotal += 4 * len(f.Data)
	}
	v["core.state_bytes"] = float64(bytesTotal)
	hdr := serialize.StateHeader{Model: inst.w.model, Algo: inst.w.algo.String(), Kind: kind}
	var buf bytes.Buffer
	v["serialize.state_save_us"] = durUS(timed("serialize.SaveState", func() {
		buf.Reset()
		err = serialize.SaveState(&buf, hdr, tensors)
	}))
	if err != nil {
		return err
	}
	v["serialize.state_load_us"] = durUS(timed("serialize.LoadState", func() {
		_, _, err = serialize.LoadState(bytes.NewReader(buf.Bytes()))
	}))
	return err
}

// serveMetrics derives the serve-tier diagnostics from the group's own
// snapshot, the serve spans in the trace, and a few extra requests. It
// returns a non-empty message when the parts of a request no longer sum
// to the client's latency.
func serveMetrics(v map[string]float64, inst *instance, events []traceEvent, plain, traced phase, before, after serve.GroupSnapshot, sp *spans, short bool) (string, error) {
	w := inst.w
	images := float64(w.imagesPerPass())
	v["serve.service_p50_ms"] = durMS(after.Service.P50)
	v["serve.e2e_p50_ms"] = durMS(after.E2E.P50)
	v["serve.e2e_p95_ms"] = durMS(after.E2E.P95)
	v["serve.max_queue_depth"] = float64(after.MaxQueueDepth)
	v["serve.failed"] = float64(after.Shed + after.Canceled + after.Faults + after.NumericResets)
	reqs, calls := float64(after.Requests-before.Requests), float64(after.Batches-before.Batches)
	v["serve.process_calls"] = calls
	v["serve.coalesce_mean"] = reqs / calls
	v["serve.coalesced_share"] = float64(after.Coalesced-before.Coalesced) / reqs

	// Where a traced request's time went. E2E is the server's submit-to-
	// response clock; its mean over the traced passes alone follows from
	// the lifetime means on either side (exact while the histogram has not
	// wrapped, which these request counts never reach).
	queue, service := serveSpans(events)
	v["serve.queue_wait_p50_ms"] = median(queue)
	client := durMS(traced.latSum()) / float64(len(traced.lat))
	wire := 0.0
	if w.kind == httpKind {
		e2e := (durMS(after.E2E.Mean)*float64(after.E2E.Count) - durMS(before.E2E.Mean)*float64(before.E2E.Count)) /
			float64(after.E2E.Count-before.E2E.Count)
		wire = client - e2e
		v["httpapi.wire_overhead_p50_ms"] = quantile(ms(plain.lat), 0.5) - durMS(after.E2E.P50)
		v["httpapi.request_bytes"] = float64(4 * inst.in[0][0].x.Numel())
	}
	share := (wire + mean(queue) + service) / client
	v["serve.attributed_share"] = share
	msg := ""
	if share < 0.9 || share > 1.1 {
		msg = fmt.Sprintf("serve.attributed_share %.3f outside 1±0.1: wire %.3f + queue %.3f + service %.3f ms vs client %.3f ms",
			share, wire, mean(queue), service, client)
	}

	reps := 30
	if short {
		reps = 3
	}
	t0 := time.Now()
	if err := dispatchOverhead(v, inst, reps); err != nil {
		return msg, err
	}
	sp.put("serve.Stream.SubmitCtx, 1 stream 1 outstanding", t0, time.Since(t0), -1, -1, 0)

	// The same inputs through a bare private adapter, same algorithm and
	// batch: what the serving tier costs on top.
	a, err := core.New(w.algo, inst.model.Clone(), core.Config{})
	if err != nil {
		return msg, err
	}
	t0 = time.Now()
	a.Reset()
	for _, b := range inst.in[0] {
		a.Process(b.x)
	}
	bare := float64(len(inst.in[0])*w.batch) / time.Since(t0).Seconds()
	sp.put("core.Adapter.Process, bare", t0, time.Since(t0), -1, -1, 0)
	v["core.bare_images_per_s"] = bare
	v["serve.overhead_ratio"] = images / median(plain.walls) / bare

	if hs, ok := inst.sys.(*httpSystem); ok {
		t0 = time.Now()
		if err := wireMetrics(v, hs, inst.in[0][0].x, reps); err != nil {
			return msg, err
		}
		sp.put("httpapi codec and session micro-measurements", t0, time.Since(t0), -1, -1, 0)
	}
	return msg, nil
}

// dispatchOverhead is what the serve layer adds around Process when
// nothing queues: one stream, one outstanding request, client latency
// minus the service time the response reports.
func dispatchOverhead(v map[string]float64, inst *instance, reps int) error {
	st, err := inst.srv.OpenStream(inst.key)
	if err != nil {
		return err
	}
	defer st.Close()
	over := make([]float64, reps)
	for i := range over {
		t0 := time.Now()
		r := <-st.SubmitCtx(context.Background(), inst.in[0][i%len(inst.in[0])].x)
		if r.Err != nil {
			return r.Err
		}
		over[i] = durUS(time.Since(t0) - r.Service)
	}
	v["serve.dispatch_overhead_us"] = median(over)
	return nil
}

// wireMetrics times the HTTP front-end's codecs and session lifecycle on
// a connection of their own.
func wireMetrics(v map[string]float64, hs *httpSystem, x *tensor.Tensor, reps int) error {
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	p50 := func(binary bool) (float64, error) {
		c := httpapi.NewClient(hs.base, &http.Client{Transport: tr})
		c.Binary = binary
		cs, err := c.Open(hs.w.model, hs.w.algo.String())
		if err != nil {
			return 0, err
		}
		defer cs.Close()
		d := timeReps(reps, func() {
			if _, perr := cs.Process(x); perr != nil {
				err = perr
			}
		})
		return durMS(d), err
	}
	bin, err := p50(true)
	if err != nil {
		return err
	}
	js, err := p50(false)
	if err != nil {
		return err
	}
	v["httpapi.json_over_binary"] = js / bin

	c := httpapi.NewClient(hs.base, &http.Client{Transport: tr})
	v["httpapi.session_open_close_ms"] = durMS(timeReps(reps, func() {
		cs, oerr := c.Open(hs.w.model, hs.w.algo.String())
		if oerr == nil {
			_, oerr = cs.Close()
		}
		if oerr != nil {
			err = oerr
		}
	}))
	return err
}

// verify is the correctness check after the timed section. Serve kinds:
// the first replayOps ops of every stream go through a private serial
// adapter and must give the reference pass's logits bit for bit — the
// repo's serve-vs-serial contract; every timed pass was already held to
// the reference. Adapt kinds: adaptation touched nothing but BatchNorm
// state.
func verify(inst *instance, t *tally) error {
	if as, ok := inst.sys.(*adaptSystem); ok {
		if !core.VerifyOnlyBNAdapted(as.m.Params(), inst.model.Params()) {
			return fmt.Errorf("adaptation changed a non-BatchNorm parameter")
		}
		return nil
	}
	a, err := core.New(inst.w.algo, inst.model.Clone(), core.Config{})
	if err != nil {
		return err
	}
	ops := len(inst.in[0])
	for k, stream := range inst.in {
		a.Reset()
		for i := 0; i < ops && i < replayOps; i++ {
			t.attempted++
			if logitsSum(a.Process(stream[i].x)) != t.ref[k*ops+i] {
				t.fail(k*ops+i, nil, "served logits differ from the serial adapter's")
			}
		}
	}
	return nil
}
