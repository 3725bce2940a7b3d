package main

// metricDef names one reported metric. The lists below are the benchmark's
// vocabulary; BENCHMARK.json repeats them (with the regression bounds) and
// a test keeps the two identical.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics, the same seven on every workload. "op"
// is one Process batch on adapt_*, one request on serve_*.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // median of setupReps full set-ups: load, build, pregenerate, first op
	{"images_per_s", "img/s"},  // images per pass ÷ median pass wall
	{"batch_p50_ms", "ms"},     // median op latency, pooled over passes
	{"batch_p10_ms", "ms"},     // undisturbed op cost
	{"cpu_ms_per_image", "ms"}, // process user+sys CPU over the timed section ÷ images
	{"peak_rss_mb", "MB"},      // resident-set high-water mark at exit
	{"top1_acc_pct", "%"},      // 100·correct/images over one pass (every pass is identical)
}

// perLayer are the diagnostics of the traced run, never gated. A metric
// that does not apply to a workload (httpapi.* on an in-process workload)
// reads 0 in the JSON and "n/a" in the table.
var perLayer = []metricDef{
	// nn layer profiler (nn.StartProfiling over the traced passes), per op.
	{"nn.fw_ms.conv", "ms"}, {"nn.fw_ms.pack", "ms"}, {"nn.fw_ms.bn", "ms"},
	{"nn.fw_ms.act", "ms"}, {"nn.fw_ms.pool", "ms"}, {"nn.fw_ms.linear", "ms"},
	{"nn.fw_ms.other", "ms"},
	{"nn.bw_ms.conv", "ms"}, {"nn.bw_ms.bn", "ms"}, {"nn.bw_ms.act", "ms"},
	{"nn.bw_ms.pool", "ms"}, {"nn.bw_ms.linear", "ms"}, {"nn.bw_ms.other", "ms"},
	{"nn.conv_bw_over_fw", "ratio"}, {"nn.bw_share_meas", "ratio"},
	{"nn.attributed_share", "ratio"}, {"nn.entropy_us", "us"},
	// models / opt / tensor, timed through their public functions.
	{"models.forward_eval_ms", "ms"}, {"models.backward_ms", "ms"},
	{"models.clone_ms", "ms"}, {"opt.adam_step_us", "us"},
	{"tensor.conv3x3_direct_ms", "ms"}, {"tensor.conv1x1_ms", "ms"},
	{"tensor.conv3x3_im2col_ms", "ms"}, {"tensor.matmul256_ms", "ms"},
	// core adapters.
	{"core.process_p50_ms", "ms"}, {"core.process_p95_ms", "ms"},
	{"core.adapt_over_infer", "ratio"}, {"core.bare_images_per_s", "img/s"},
	{"core.state_swap_us", "us"}, {"core.state_bytes", "B"},
	// serialize.
	{"serialize.model_load_ms", "ms"}, {"serialize.state_save_us", "us"},
	{"serialize.state_load_us", "us"},
	// serve.
	{"serve.addgroup_ms", "ms"}, {"serve.service_p50_ms", "ms"},
	{"serve.e2e_p50_ms", "ms"}, {"serve.e2e_p95_ms", "ms"},
	{"serve.queue_wait_p50_ms", "ms"}, {"serve.dispatch_overhead_us", "us"},
	{"serve.max_queue_depth", "count"}, {"serve.attributed_share", "ratio"},
	{"serve.coalesce_mean", "ratio"}, {"serve.coalesced_share", "ratio"},
	{"serve.process_calls", "count"}, {"serve.overhead_ratio", "ratio"},
	{"serve.failed", "count"},
	// httpapi.
	{"httpapi.wire_overhead_p50_ms", "ms"}, {"httpapi.json_over_binary", "ratio"},
	{"httpapi.request_bytes", "B"}, {"httpapi.session_open_close_ms", "ms"},
	// data, runtime, telemetry, parallel, device.
	{"data.corrupt_us_per_image", "us"},
	{"runtime.alloc_kb_per_image", "KB"}, {"runtime.mallocs_per_image", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"telemetry.trace_overhead_pct", "%"}, {"telemetry.spans", "count"},
	{"telemetry.dropped", "count"},
	{"parallel.w2_speedup", "ratio"},
	{"device.bw_share_pred", "ratio"}, {"device.estimate_us", "us"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the result's metric map from measured values: every name in
// defs appears, with 0 for one the workload did not measure.
func fill(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return out
}
