// Command ttaload is the serving load generator: a client of a running
// ttaserve that speaks only the public wire API (httpapi.Client). It
// replays mixed stateless/stateful corruption traffic and records a
// throughput-vs-stream-count curve with top-1 accuracy per point — the
// serving-capacity datapoint (how many concurrent adaptation streams a box
// sustains, and at what latency) for exploring a deployment; numbers of
// record come from bench/run.sh.
//
// The server's groups come from its /v1/stats snapshot: -stateful-frac of
// each point's sessions go round-robin over the stateful groups, the rest
// over the stateless ones. Submits are sequenced, so a retried batch is
// adapted on once; 429 rejections are retried through the client's retry
// policy, so a shed-admission server can be driven past saturation
// without losing work. The 429s column is the server's shed count over
// the point. Streams are drawn from dataset seed 2024, the one
// ttaserve -train trains on.
//
// Usage:
//
//	ttaserve -algo noadapt,bnnorm -http 127.0.0.1:8080 &
//	ttaload -addr http://127.0.0.1:8080 -curve 1,2,4,8 -samples 64
//	ttaload -addr http://127.0.0.1:8080 -curve 1,2,4 -out curve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgetta/internal/data"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/telemetry"
)

// retryAttempts bounds the tries per batch. Backoff starts at 5 ms and
// doubles to the 2 s cap, jittered down by up to half, so a server that
// stops answering is reported after 11–22 s; a batch the server keeps
// shedding gets at least as long, more when its hints are longer.
const retryAttempts = 20

type point struct {
	Streams      int     `json:"streams"`
	Images       int     `json:"images"`
	WallMS       float64 `json:"wall_ms"`
	ImagesPerSec float64 `json:"images_per_sec"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	Retried429   int     `json:"retried_429"`
	AccuracyPct  float64 `json:"accuracy_pct"`
}

type curveDoc struct {
	Bench        string   `json:"bench"`
	Groups       []string `json:"groups"`
	Batch        int      `json:"batch"`
	Samples      int      `json:"samples_per_stream"`
	Severity     int      `json:"severity"`
	StatefulFrac float64  `json:"stateful_fraction"`
	Points       []point  `json:"points"`
}

func main() {
	addr := flag.String("addr", "", "wire API base URL of a running ttaserve (required)")
	curve := flag.String("curve", "1,2,4,8", "comma-separated stream counts to sweep")
	samples := flag.Int("samples", 64, "samples per stream at each point")
	batch := flag.Int("batch", 16, "images per request")
	severity := flag.Int("severity", 3, "corruption severity 1..5")
	statefulFrac := flag.Float64("stateful-frac", 0.5, "fraction of sessions on the server's stateful groups")
	binary := flag.Bool("binary", true, "use the octet-stream codec (false = JSON)")
	out := flag.String("out", "", "write the curve as JSON to this file ('-' = stdout, suppresses the table)")
	flag.Parse()

	if *addr == "" {
		fatal(fmt.Errorf("-addr is required (start a server with ttaserve)"))
	}
	if *statefulFrac < 0 || *statefulFrac > 1 {
		fatal(fmt.Errorf("-stateful-frac %g: want a fraction in [0, 1]", *statefulFrac))
	}
	counts, err := parseCurve(*curve)
	if err != nil {
		fatal(err)
	}
	client := httpapi.NewClient(*addr, nil)
	snap, err := client.Snapshot()
	if err != nil {
		fatal(err)
	}
	doc := curveDoc{
		Bench: "serve_curve", Batch: *batch, Samples: *samples, Severity: *severity,
		StatefulFrac: *statefulFrac,
	}
	var stateless, stateful []serve.GroupKey
	var names []string
	for _, g := range snap.Groups {
		kind := "stateless"
		if g.Stateful {
			kind = "stateful"
			stateful = append(stateful, g.Key)
		} else {
			stateless = append(stateless, g.Key)
		}
		names = append(names, fmt.Sprintf("%s (%s)", g.Key, kind))
		doc.Groups = append(doc.Groups, g.Key.String())
	}
	if *statefulFrac > 0 && len(stateful) == 0 || *statefulFrac < 1 && len(stateless) == 0 {
		fatal(fmt.Errorf("-stateful-frac %g needs a group of each kind it sends sessions to; %s serves %s",
			*statefulFrac, *addr, strings.Join(names, ", ")))
	}

	table := *out != "-"
	if table {
		fmt.Printf("target %s: %s\n%d samples/stream, batch %d, severity %d, %.0f%% stateful, codec %s\n\n",
			*addr, strings.Join(names, ", "), *samples, *batch, *severity, 100**statefulFrac, codecName(*binary))
		fmt.Printf("%8s %8s %10s %12s %9s %9s %8s %8s\n", "streams", "images", "wall", "img/s", "p50", "p95", "429s", "top-1")
		fmt.Println(strings.Repeat("-", 79))
	}
	cfg := runCfg{
		base: *addr, samples: *samples, batch: *batch, severity: *severity,
		statefulFrac: *statefulFrac, stateless: stateless, stateful: stateful, binary: *binary,
	}
	for _, n := range counts {
		before, err := client.Snapshot()
		if err != nil {
			fatal(err)
		}
		p, err := runPoint(cfg, n)
		if err != nil {
			fatal(err)
		}
		after, err := client.Snapshot()
		if err != nil {
			fatal(err)
		}
		p.Retried429 = shed(after) - shed(before)
		doc.Points = append(doc.Points, p)
		if table {
			fmt.Printf("%8d %8d %10s %12.1f %8.1fms %8.1fms %8d %7.1f%%\n",
				p.Streams, p.Images, fmt.Sprintf("%.0fms", p.WallMS), p.ImagesPerSec, p.P50MS, p.P95MS, p.Retried429, p.AccuracyPct)
		}
	}

	if *out != "" {
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		enc = append(enc, '\n')
		if *out == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		} else {
			fmt.Printf("\nwrote %s\n", *out)
		}
	}
}

// runCfg bundles the sweep parameters shared by every curve point.
type runCfg struct {
	base                     string
	samples, batch, severity int
	statefulFrac             float64
	stateless, stateful      []serve.GroupKey
	binary                   bool
}

// runPoint drives one curve point: n concurrent sessions, each replaying
// its own corruption stream to completion. Latencies are client-side
// (submit to logits in hand, retries included), with nearest-rank
// percentiles as /v1/stats reports them.
func runPoint(cfg runCfg, n int) (point, error) {
	type result struct {
		images, correct int
		err             error
	}
	results := make([]result, n)
	nStateful := 0
	var lat telemetry.Hist
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		// Stateful sessions take the low indices so every point holds
		// (approximately) the configured fraction.
		var key serve.GroupKey
		if float64(i)+0.5 < cfg.statefulFrac*float64(n) {
			key = cfg.stateful[nStateful%len(cfg.stateful)]
			nStateful++
		} else {
			key = cfg.stateless[(i-nStateful)%len(cfg.stateless)]
		}
		wg.Add(1)
		go func(i int, key serve.GroupKey) {
			defer wg.Done()
			r := &results[i]
			// The default 2 s backoff cap is the server's own hint clamp,
			// so no hint is cut short.
			c := httpapi.NewClient(cfg.base, nil).WithRetry(httpapi.RetryPolicy{
				MaxAttempts: retryAttempts, Base: 5 * time.Millisecond, Seed: int64(i),
			})
			c.Binary = cfg.binary
			cs, err := c.Open(key.ModelTag, key.Algo.String())
			if err != nil {
				r.err = fmt.Errorf("open session %d on %s: %w", i, key, err)
				return
			}
			defer cs.Close()
			s := data.NewGenerator(2024).NewStream(int64(1000+i), cfg.samples, data.AllCorruptions[i%len(data.AllCorruptions)], cfg.severity)
			// Sequenced submits make a retried batch exactly-once on a
			// stateful group: a resend of a batch the server already
			// adapted on replays the cached logits.
			for seq := uint64(1); ; seq++ {
				x, labels, ok := s.Next(cfg.batch)
				if !ok {
					return
				}
				t0 := time.Now()
				logits, err := cs.ProcessSeq(x, seq)
				if err != nil {
					r.err = fmt.Errorf("session %d on %s: %w", i, key, err)
					return
				}
				lat.Observe(time.Since(t0))
				for j, p := range logits.ArgmaxRows() {
					if p == labels[j] {
						r.correct++
					}
				}
				r.images += len(labels)
			}
		}(i, key)
	}
	wg.Wait()
	wall := time.Since(start)

	p := point{Streams: n, WallMS: float64(wall.Microseconds()) / 1e3}
	correct := 0
	for i := range results {
		if results[i].err != nil {
			return p, results[i].err
		}
		p.Images += results[i].images
		correct += results[i].correct
	}
	p.ImagesPerSec = float64(p.Images) / wall.Seconds()
	if p.Images > 0 {
		p.AccuracyPct = 100 * float64(correct) / float64(p.Images)
	}
	s := lat.Summary()
	p.P50MS = float64(s.P50.Microseconds()) / 1e3
	p.P95MS = float64(s.P95.Microseconds()) / 1e3
	return p, nil
}

// shed totals the server's admission rejections over every group.
func shed(s serve.Snapshot) int {
	n := 0
	for _, g := range s.Groups {
		n += g.Shed
	}
	return n
}

func parseCurve(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("parse -curve %q: want positive stream counts", s)
		}
		out = append(out, n)
	}
	return out, nil
}

func codecName(binary bool) string {
	if binary {
		return "binary"
	}
	return "json"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ttaload:", err)
	os.Exit(1)
}
