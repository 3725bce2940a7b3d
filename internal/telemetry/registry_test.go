package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryPrometheusDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "group", "bnopt/WRN-AM").Add(3)
	r.Counter("requests_total", "group", "bnnorm/RXT-AM").Add(1)
	r.Gauge("queue_depth", "group", "bnopt/WRN-AM").Set(2)
	r.GaugeFunc("pool_workers", func() float64 { return 8 })
	h := &Hist{}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	r.RegisterHist("service_seconds", h, "group", "bnopt/WRN-AM")

	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of an idle registry differ")
	}
	out := a.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{group="bnnorm/RXT-AM"} 1`,
		`requests_total{group="bnopt/WRN-AM"} 3`,
		"# TYPE queue_depth gauge",
		`queue_depth{group="bnopt/WRN-AM"} 2`,
		"pool_workers 8",
		"# TYPE service_seconds summary",
		`service_seconds{group="bnopt/WRN-AM",quantile="0.5"} 0.05`,
		`service_seconds{group="bnopt/WRN-AM",quantile="0.99"} 0.099`,
		`service_seconds_count{group="bnopt/WRN-AM"} 100`,
		`service_seconds_max{group="bnopt/WRN-AM"} 0.1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Sorted order: bnnorm label set before bnopt.
	if strings.Index(out, "bnnorm/RXT-AM") > strings.Index(out, `requests_total{group="bnopt`) {
		t.Error("counters not in sorted label order")
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "k", "v")
	c1.Add(5)
	c2 := r.Counter("x_total", "k", "v")
	if c1 != c2 {
		t.Fatal("same name+labels returned distinct counters")
	}
	if c2.Value() != 5 {
		t.Fatalf("re-registered counter lost its value: %d", c2.Value())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("y")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("y")
}

// TestRegistryConcurrentScrape hammers a registry with observers and
// scrapers; run with -race this pins the concurrent-scrape safety the
// serving tier depends on.
func TestRegistryConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	g := r.Gauge("depth")
	h := &Hist{}
	r.RegisterHist("lat_seconds", h)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				c.Inc()
				g.Set(int64(i % 32))
				h.Observe(time.Duration(seed*1000+i) * time.Microsecond)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	for s := 0; s < 50; s++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		// Registration during scraping must also be safe.
		r.Counter("late_total", "i", "x").Inc()
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 {
		t.Fatal("no observations made")
	}
}
