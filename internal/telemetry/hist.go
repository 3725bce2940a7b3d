// Package telemetry is the repository's unified observability substrate: a
// zero-dependency metrics registry (counters, gauges, bounded latency
// histograms) with Prometheus-text and JSON exposition, and a span tracer
// that exports Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every instrumentation site in the hot paths
//     guards on a single atomic pointer load (ActiveTracer() == nil) or a
//     nil metric reference; benchmarks pin that the full WRN forward with
//     telemetry disabled is indistinguishable from an uninstrumented build.
//  2. Enabled must not perturb outputs. Telemetry observes wall time and
//     counts; it never touches model state, stream RNGs, or scheduling.
//     The kernel parity and seed-determinism suites run with tracing
//     active (CI sets EDGETTA_TRACE=1) and require byte-identical outputs.
//  3. Exposition is deterministic. Metrics are rendered in sorted order
//     and trace args are ordered slices, never ranged-over maps — the
//     package sits inside ttalint's determinism scope, with clock reads as
//     its one sanctioned carve-out (this package owns the clock so that
//     instrumented packages like internal/data never read it themselves).
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// HistWindow bounds Hist's raw-sample memory: past this many observations
// the histogram becomes a sliding window over the most recent ones, so a
// long-lived server's metrics stay O(1) per stream and group. Bounded runs
// (the paper's protocol is 10000 samples per corruption, in batches) never
// hit the bound, so their percentiles stay exact.
const HistWindow = 1 << 14

// Hist accumulates latency observations so the batch and serving paths
// report comparable tail metrics. It stores raw samples up to HistWindow,
// then keeps the most recent HistWindow of them (Count still reports the
// lifetime total). The zero value is ready to use.
//
// Hist is safe for concurrent use: Observe and Summary take an internal
// lock, so a metrics scrape may read a histogram while its owner observes
// into it. Summary memoizes its result until the next Observe and reuses
// one internal sort buffer, so scraping an idle histogram costs no sorting
// and no allocation (the pre-memoization implementation copied and
// re-sorted the full 16K-sample window on every call).
type Hist struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int // ring cursor once len(samples) == HistWindow
	total   int // lifetime observation count

	scratch []time.Duration // reusable sort buffer for Summary
	memo    Summary         // last computed summary, valid while memoOK
	memoOK  bool
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	h.mu.Lock()
	h.total++
	h.memoOK = false
	if len(h.samples) < HistWindow {
		h.samples = append(h.samples, d)
		h.mu.Unlock()
		return
	}
	h.samples[h.next] = d
	h.next = (h.next + 1) % HistWindow
	h.mu.Unlock()
}

// Summary computes the distribution summary (nearest-rank percentiles over
// the retained window; Count is the lifetime total). The result is
// memoized: repeated calls between observations return the cached value
// without re-sorting the window.
func (h *Hist) Summary() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.memoOK {
		return h.memo
	}
	s := Summary{Count: h.total}
	if len(h.samples) == 0 {
		h.memo, h.memoOK = s, true
		return s
	}
	if cap(h.scratch) < len(h.samples) {
		h.scratch = make([]time.Duration, len(h.samples))
	}
	sorted := h.scratch[:len(h.samples)]
	copy(sorted, h.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	rank := func(p float64) time.Duration {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	s.Mean = total / time.Duration(len(sorted))
	s.P50, s.P95, s.P99 = rank(0.50), rank(0.95), rank(0.99)
	s.Max = sorted[len(sorted)-1]
	h.memo, h.memoOK = s, true
	return s
}

// Summary is the headline latency distribution of a stream or a serving
// group: median and tail percentiles over per-batch wall time. The JSON
// tags are the serving tier's stats wire shape (serve.GroupSnapshot and
// serve.StreamSnapshot carry it): durations marshal as integer nanoseconds,
// the encoding/json rendering of time.Duration, so the encoding is exact
// and deterministic.
type Summary struct {
	Count int           `json:"count"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

// String formats the summary's headline numbers.
func (s Summary) String() string {
	if s.Count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50=%v p95=%v p99=%v max=%v (n=%d)",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond), s.Count)
}
