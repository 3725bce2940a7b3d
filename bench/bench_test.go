package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// short shrinks a workload to a sub-second smoke for the tests: same code
// paths, a fraction of the work.
func (w workload) short() workload {
	w.ops = 3
	if w.streams > 2 {
		w.streams = 2 * w.drivers
		if w.streams == 0 {
			w.streams = 2
		}
	}
	if w.batch > 8 {
		w.batch = 8
	}
	w.minAcc = 0 // three batches of 8 say nothing about accuracy
	return w
}

func TestQuantiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q2, q3 := quartiles([]float64{5, 4, 3, 2, 1}); q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := quantile(ten, 0.10); got != 1.9 {
		t.Errorf("p10 of 1..10 = %v, want 1.9", got)
	}
	if got := median(ten); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if ten[0] != 10 {
		t.Error("quantile sorted its argument in place")
	}
	// Throughput is images ÷ median pass wall: one pass hit by a
	// multi-second neighbour burst must not move it.
	calm := []float64{3.1, 3.0, 3.2, 3.1, 3.0, 3.1}
	burst := []float64{3.1, 3.0, 9.7, 3.1, 3.0, 3.1}
	if median(calm) != median(burst) {
		t.Errorf("median pass wall moved with one slow pass: %v vs %v", median(calm), median(burst))
	}
}

// TestNamesMatchBenchmarkJSON keeps the program's workload and metric
// vocabulary identical to the contract file the driver reads.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.name, "")
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		if w.kind == inprocKind && w.streams%w.drivers != 0 {
			t.Errorf("%s: %d streams do not split over %d drivers", w.name, w.streams, w.drivers)
		}
	}

	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	widest := 0.0
	for i, d := range endToEnd {
		check(d.name, d.unit)
		got := spec.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, got.Bound)
		}
		if got.Better != "lower" && got.Better != "higher" {
			t.Errorf("%s: better %q", d.name, got.Better)
		}
		widest = max(widest, got.Bound)
	}
	if s := spec.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != widest {
		t.Errorf("setup_s must come first, in s, lower-is-better, with the largest bound: %+v", s)
	}

	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check(d.name, d.unit)
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json has %s [%s], the program %s [%s]", i, got.Name, got.Unit, d.name, d.unit)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
}

func TestInputsFollowSeed(t *testing.T) {
	w := workloads[0].short()
	a, b, c := makeInputs(w, 1), makeInputs(w, 1), makeInputs(w, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different inputs")
	}
	for k := range a {
		for i := range a[k] {
			if reflect.DeepEqual(a[k][i].x.Data, c[k][i].x.Data) {
				t.Errorf("stream %d op %d: seeds 1 and 2 gave the same images", k, i)
			}
		}
	}
	if reflect.DeepEqual(a[0][0].x.Data, a[1][0].x.Data) {
		t.Error("two streams of one seed share their images")
	}
}

// TestShortSmoke drives every workload through both runs at a fraction of
// the size: same code paths, zero failed ops, every metric reported, the
// layer spans covering Process and the serve parts summing to the client's
// latency (both are folded into the traced run's verdict), and a loadable
// Chrome trace.
func TestShortSmoke(t *testing.T) {
	for _, full := range workloads {
		w := full.short()
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{w: w, seed: 3, passes: 1, weights: "testdata", short: true,
				traceOut: filepath.Join(t.TempDir(), "trace.json")}
			res, err := timedRun(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.opsPerPass() {
				t.Errorf("timed run: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 {
					t.Errorf("timed run: %s = %v", d.name, m.Value)
				}
			}

			res, err = tracedRun(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d (attributed shares: nn %v serve %v)", res.Correct, res.Failed,
					res.Metrics["nn.attributed_share"].Value, res.Metrics["serve.attributed_share"].Value)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reported %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			share := "serve.attributed_share"
			if w.kind == adaptKind {
				share = "nn.attributed_share"
			}
			if res.Metrics[share].Value == 0 {
				t.Errorf("%s was not measured", share)
			}
			t.Logf("%s = %.3f", share, res.Metrics[share].Value)

			raw, err := os.ReadFile(o.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatalf("trace does not load: %v", err)
			}
			cats := map[string]int{}
			for _, e := range tf.TraceEvents {
				cats[e.Cat]++
			}
			if cats["bench"] == 0 || cats["nn"] == 0 || (w.kind != adaptKind && cats["serve"] == 0) {
				t.Errorf("trace is missing a layer's spans: %v", cats)
			}
		})
	}
}
