package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value. All methods are safe for
// concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// entry is one registered metric: a base name, a rendered label set, and
// exactly one of the typed references.
type entry struct {
	base   string // metric name without labels
	labels string // `k="v",k2="v2"` rendered at registration, "" if none
	typ    string // counter | gauge | gaugefunc | histogram

	c  *Counter
	g  *Gauge
	fn func() float64
	h  *Hist
}

// key is the entry's identity and sort key.
func (e *entry) key() string {
	if e.labels == "" {
		return e.base
	}
	return e.base + "{" + e.labels + "}"
}

// Registry is a set of named metrics with deterministic exposition. The
// zero value is not usable; construct with NewRegistry. All methods are
// safe for concurrent use, and scraping never blocks metric owners: the
// registry lock covers only the entry table, never value reads, gauge
// callbacks, or histogram percentile sorting.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// renderLabels turns k,v pairs into a canonical sorted label string.
// Panics on an odd pair count — label sets are compile-time shapes, not
// runtime data.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", p.k, strconv.Quote(p.v))
	}
	return b.String()
}

// register installs the entry, returning the existing one on a same-type
// re-registration (metric constructors are idempotent) and panicking on a
// type conflict — two subsystems disagreeing about a metric's type is a
// programming error no scrape output could make visible.
func (r *Registry) register(e *entry) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[e.key()]; ok {
		if prev.typ != e.typ {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", e.key(), e.typ, prev.typ))
		}
		return prev
	}
	r.entries[e.key()] = e
	return e
}

// Counter returns the counter registered under base and the k,v label
// pairs, creating it on first use.
func (r *Registry) Counter(base string, labels ...string) *Counter {
	e := r.register(&entry{base: base, labels: renderLabels(labels), typ: "counter", c: &Counter{}})
	return e.c
}

// Gauge returns the gauge registered under base and the k,v label pairs,
// creating it on first use.
func (r *Registry) Gauge(base string, labels ...string) *Gauge {
	e := r.register(&entry{base: base, labels: renderLabels(labels), typ: "gauge", g: &Gauge{}})
	return e.g
}

// GaugeFunc registers a derived gauge whose value is computed by fn at
// scrape time. fn runs outside the registry lock and must be safe to call
// from any goroutine.
func (r *Registry) GaugeFunc(base string, fn func() float64, labels ...string) {
	r.register(&entry{base: base, labels: renderLabels(labels), typ: "gaugefunc", fn: fn})
}

// RegisterHist attaches an existing histogram under base and the k,v label
// pairs. The histogram keeps its owner; the registry only snapshots it at
// scrape time (Hist is internally locked, so scrapes are safe against
// concurrent Observe calls).
func (r *Registry) RegisterHist(base string, h *Hist, labels ...string) {
	r.register(&entry{base: base, labels: renderLabels(labels), typ: "histogram", h: h})
}

// snapshot returns the entries sorted by key, outside the lock.
func (r *Registry) snapshot() []*entry {
	r.mu.Lock()
	keys := make([]string, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*entry, len(keys))
	for i, k := range keys {
		out[i] = r.entries[k]
	}
	r.mu.Unlock()
	return out
}

// withQuantile injects a quantile label into a rendered label set.
func withQuantile(labels, q string) string {
	if labels == "" {
		return `quantile="` + q + `"`
	}
	return labels + `,quantile="` + q + `"`
}

// braced wraps a non-empty label set for exposition.
func braced(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, metrics sorted by name. Histograms are exposed summary-style:
// quantile-labeled seconds plus _count (lifetime) and _max.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastType := map[string]bool{} // TYPE line emitted per base name
	for _, e := range r.snapshot() {
		switch e.typ {
		case "counter":
			if !lastType[e.base] {
				lastType[e.base] = true
				fmt.Fprintf(w, "# TYPE %s counter\n", e.base)
			}
			fmt.Fprintf(w, "%s %d\n", braced(e.base, e.labels), e.c.Value())
		case "gauge":
			if !lastType[e.base] {
				lastType[e.base] = true
				fmt.Fprintf(w, "# TYPE %s gauge\n", e.base)
			}
			fmt.Fprintf(w, "%s %d\n", braced(e.base, e.labels), e.g.Value())
		case "gaugefunc":
			if !lastType[e.base] {
				lastType[e.base] = true
				fmt.Fprintf(w, "# TYPE %s gauge\n", e.base)
			}
			fmt.Fprintf(w, "%s %g\n", braced(e.base, e.labels), e.fn())
		case "histogram":
			if !lastType[e.base] {
				lastType[e.base] = true
				fmt.Fprintf(w, "# TYPE %s summary\n", e.base)
			}
			s := e.h.Summary()
			fmt.Fprintf(w, "%s %g\n", braced(e.base, withQuantile(e.labels, "0.5")), s.P50.Seconds())
			fmt.Fprintf(w, "%s %g\n", braced(e.base, withQuantile(e.labels, "0.95")), s.P95.Seconds())
			fmt.Fprintf(w, "%s %g\n", braced(e.base, withQuantile(e.labels, "0.99")), s.P99.Seconds())
			fmt.Fprintf(w, "%s %d\n", braced(e.base+"_count", e.labels), s.Count)
			fmt.Fprintf(w, "%s %g\n", braced(e.base+"_max", e.labels), s.Max.Seconds())
		}
	}
	return nil
}
