// Command ttaload is the serving load generator: it replays mixed
// stateless/stateful corruption traffic against the ttaserve wire API and
// records a throughput-vs-stream-count curve — the serving-capacity
// datapoint (how many concurrent adaptation streams a box sustains, and
// at what latency) for exploring a deployment; numbers of record come from
// bench/run.sh.
//
// With -addr it targets a running server; without it, it self-hosts a
// server in-process over a loopback listener (same wire path, zero setup)
// with one stateless and one stateful group. Sessions are assigned
// algorithms by -stateful-frac: a stateful session adapts with its own
// per-stream state (bnnorm by default), a stateless one rides the
// coalescing path (noadapt). 429 rejections are retried after the
// server's Retry-After hint and counted, so shed-admission servers can be
// driven to saturation without losing work.
//
// Usage:
//
//	ttaload -curve 1,2,4,8 -samples 64            # self-hosted
//	ttaload -addr http://edge-box:8080 -curve 1,4  # remote ttaserve
//	ttaload -curve 1,2,4 -out curve.json           # machine-readable curve
//	ttaload -chaos 1 -samples 16 -batch 4          # seeded fault-recovery scenario
//
// -chaos runs the seeded fault-recovery scenario instead of the curve: a
// self-hosted stateful group takes injected replica panics, a slow
// replica, a checkpoint-write failure, and one full server restart while
// named sequenced sessions replay corruption streams through seeded-
// backoff retries; every response is verified bitwise against a serial
// reference run (see chaos.go). Exit status is the verdict.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/telemetry"
	"edgetta/internal/tensor"
)

type point struct {
	Streams      int     `json:"streams"`
	Images       int     `json:"images"`
	WallMS       float64 `json:"wall_ms"`
	ImagesPerSec float64 `json:"images_per_sec"`
	P50MS        float64 `json:"p50_ms"`
	P95MS        float64 `json:"p95_ms"`
	Retried429   int     `json:"retried_429"`
}

type curveDoc struct {
	Bench         string  `json:"bench"`
	Model         string  `json:"model"`
	Batch         int     `json:"batch"`
	Samples       int     `json:"samples_per_stream"`
	StatefulFrac  float64 `json:"stateful_fraction"`
	StatelessAlgo string  `json:"stateless_algo"`
	StatefulAlgo  string  `json:"stateful_algo"`
	Points        []point `json:"points"`
}

func main() {
	addr := flag.String("addr", "", "wire API base URL (empty = self-host a server in-process)")
	modelTag := flag.String("model", "WRN-AM", "model tag (self-host; must match the server's group otherwise)")
	curve := flag.String("curve", "1,2,4,8", "comma-separated stream counts to sweep")
	samples := flag.Int("samples", 64, "samples per stream at each point")
	batch := flag.Int("batch", 16, "images per request")
	severity := flag.Int("severity", 3, "corruption severity 1..5")
	statefulFrac := flag.Float64("stateful-frac", 0.5, "fraction of sessions running the stateful algorithm")
	statelessAlgo := flag.String("algo-stateless", "noadapt", "algorithm for stateless sessions")
	statefulAlgo := flag.String("algo-stateful", "bnnorm", "algorithm for stateful sessions")
	binary := flag.Bool("binary", true, "use the octet-stream codec (false = JSON)")
	queueCap := flag.Int("queuecap", 64, "self-hosted server queue bound")
	admission := flag.String("admission", "block", "self-hosted admission policy: block or shed")
	replicas := flag.Int("replicas", 0, "self-hosted replicas per group (0 = auto)")
	workers := flag.Int("workers", 0, "parallel pool width (0 = GOMAXPROCS)")
	out := flag.String("out", "", "write the curve as JSON to this file ('-' = stdout, suppresses the table)")
	chaosSeed := flag.Int64("chaos", 0, "run the seeded fault-recovery scenario with this seed instead of the curve (self-hosted; 0 = off)")
	chaosSessions := flag.Int("chaos-sessions", 3, "concurrent named sessions in the chaos scenario")
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *chaosSeed != 0 {
		if *addr != "" {
			fatal(fmt.Errorf("-chaos self-hosts its own servers (fault injection is in-process); drop -addr"))
		}
		chaosMain(*chaosSeed, *modelTag, *statefulAlgo, *chaosSessions, *samples, *batch, *severity, *replicas, *out)
		return
	}
	counts, err := parseCurve(*curve)
	if err != nil {
		fatal(err)
	}

	base := *addr
	if base == "" {
		stop, hosted, err := selfHost(*modelTag, *statelessAlgo, *statefulAlgo, *queueCap, *admission, *replicas)
		if err != nil {
			fatal(err)
		}
		defer stop()
		base = hosted
	}

	doc := curveDoc{
		Bench: "serve_curve", Model: *modelTag, Batch: *batch, Samples: *samples,
		StatefulFrac: *statefulFrac, StatelessAlgo: *statelessAlgo, StatefulAlgo: *statefulAlgo,
	}
	table := *out != "-"
	if table {
		fmt.Printf("target %s, model %s, %d samples/stream, batch %d, %.0f%% stateful (%s), codec %s\n\n",
			base, *modelTag, *samples, *batch, 100**statefulFrac, *statefulAlgo, codecName(*binary))
		fmt.Printf("%8s %8s %10s %12s %9s %9s %8s\n", "streams", "images", "wall", "img/s", "p50", "p95", "429s")
		fmt.Println(strings.Repeat("-", 70))
	}
	cfg := runCfg{
		base: base, model: *modelTag, samples: *samples, batch: *batch, severity: *severity,
		statefulFrac: *statefulFrac, statelessAlgo: *statelessAlgo, statefulAlgo: *statefulAlgo,
		binary: *binary,
	}
	for _, n := range counts {
		p, err := runPoint(cfg, n)
		if err != nil {
			fatal(err)
		}
		doc.Points = append(doc.Points, p)
		if table {
			fmt.Printf("%8d %8d %10s %12.1f %8.1fms %8.1fms %8d\n",
				p.Streams, p.Images, fmt.Sprintf("%.0fms", p.WallMS), p.ImagesPerSec, p.P50MS, p.P95MS, p.Retried429)
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
	base, model                 string
	samples, batch, severity    int
	statefulFrac                float64
	statelessAlgo, statefulAlgo string
	binary                      bool
}

// runPoint drives one curve point: n concurrent sessions, each replaying
// its own corruption stream to completion, with 429s retried after the
// server's hint. Latencies are client-side (submit to logits in hand), with
// nearest-rank percentiles as /v1/stats reports them.
func runPoint(cfg runCfg, n int) (point, error) {
	type result struct {
		images  int
		retried int
		err     error
	}
	results := make([]result, n)
	var lat telemetry.Hist
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			algo := cfg.statelessAlgo
			// Assign stateful sessions to the low indices so every sweep
			// point holds (approximately) the configured fraction.
			if float64(i)+0.5 < cfg.statefulFrac*float64(n) {
				algo = cfg.statefulAlgo
			}
			c := httpapi.NewClient(cfg.base, nil)
			c.Binary = cfg.binary
			cs, err := c.Open(cfg.model, algo)
			if err != nil {
				r.err = fmt.Errorf("open session %d (%s): %w", i, algo, err)
				return
			}
			defer cs.Close()
			s := data.NewGenerator(1).NewStream(int64(1000+i), cfg.samples, data.AllCorruptions[i%len(data.AllCorruptions)], cfg.severity)
			for {
				x, _, ok := s.Next(cfg.batch)
				if !ok {
					return
				}
				t0 := time.Now()
				if err := processWithRetry(cs, x, &r.retried); err != nil {
					r.err = fmt.Errorf("session %d: %w", i, err)
					return
				}
				lat.Observe(time.Since(t0))
				r.images += x.Dim(0)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	p := point{Streams: n, WallMS: float64(wall.Microseconds()) / 1e3}
	for i := range results {
		if results[i].err != nil {
			return p, results[i].err
		}
		p.Images += results[i].images
		p.Retried429 += results[i].retried
	}
	p.ImagesPerSec = float64(p.Images) / wall.Seconds()
	s := lat.Summary()
	p.P50MS = float64(s.P50.Microseconds()) / 1e3
	p.P95MS = float64(s.P95.Microseconds()) / 1e3
	return p, nil
}

// processWithRetry submits one batch, honoring Retry-After on shed
// rejections. The retry budget is generous — the generator's job is to
// deliver the whole stream, not to give up under the load it created.
func processWithRetry(cs *httpapi.ClientStream, x *tensor.Tensor, retried *int) error {
	for attempt := 0; ; attempt++ {
		_, err := cs.Process(x)
		if err == nil {
			return nil
		}
		var se *serve.Error
		if !errors.As(err, &se) || se.Code != serve.CodeOverloaded || attempt >= 1000 {
			return err
		}
		*retried++
		wait := se.RetryAfter
		if wait <= 0 {
			wait = 5 * time.Millisecond
		}
		time.Sleep(wait)
	}
}

// selfHost spins up a serve.Server with one stateless and one stateful
// group behind the HTTP front-end on a loopback listener.
func selfHost(modelTag, statelessAlgo, statefulAlgo string, queueCap int, admission string, replicas int) (stop func(), base string, err error) {
	m, err := models.ByTag(modelTag, rand.New(rand.NewSource(1)), models.ReproScale)
	if err != nil {
		return nil, "", err
	}
	cfg := serve.Config{QueueCap: queueCap}
	switch admission {
	case "block":
		cfg.Admission = serve.AdmitBlock
	case "shed":
		cfg.Admission = serve.AdmitShed
	default:
		return nil, "", fmt.Errorf("unknown -admission %q (want block or shed)", admission)
	}
	srv := serve.New(cfg)
	for _, name := range dedupe(statelessAlgo, statefulAlgo) {
		algo, err := core.ParseAlgorithm(name)
		if err != nil {
			srv.Close()
			return nil, "", err
		}
		if _, err := srv.AddGroup(m, algo, core.Config{}, replicas); err != nil {
			srv.Close()
			return nil, "", err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", err
	}
	go http.Serve(ln, httpapi.New(srv, httpapi.Config{}))
	stop = func() {
		ln.Close()
		srv.Close()
	}
	return stop, "http://" + ln.Addr().String(), nil
}

func dedupe(names ...string) []string {
	var out []string
	for _, n := range names {
		seen := false
		for _, o := range out {
			seen = seen || o == n
		}
		if !seen {
			out = append(out, n)
		}
	}
	return out
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
