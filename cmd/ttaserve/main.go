// Command ttaserve runs the batched multi-stream TTA serving front-end
// over HTTP: one replica group per algorithm in -algo, each multiplexing
// its sessions over a small pool of shared model replicas, with
// compatible requests coalesced into batched Process calls. It is the one
// place a server is built from flags; cmd/ttaload drives it from outside.
//
// Usage:
//
//	ttaserve -algo noadapt,bnnorm                        # one group per algorithm
//	ttaserve -algo noadapt -maxbatch 128 -linger 2ms     # coalescing path
//	ttaserve -train                                      # robust-train first
//	ttaserve -http :8080 -scale 1:8 -admission shed
//	ttaserve -http :8080 -watchdog 5s \
//	         -checkpoint-every 4 -recover /var/lib/edgetta/ckpt
//
// The server exposes the serving wire API (POST /v1/streams,
// POST /v1/streams/{session}/submit, DELETE /v1/streams/{session} — see
// internal/serve/httpapi) alongside /metrics (Prometheus text; ?format=json
// for JSON), /debug/streams (the server-wide serve.Snapshot as JSON), and
// /debug/trace (records a Chrome trace for ?sec= seconds and streams it
// back). It serves until it is killed.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/serve"
	"edgetta/internal/serve/httpapi"
	"edgetta/internal/telemetry"
	"edgetta/internal/train"
)

func main() {
	modelTag := flag.String("model", "WRN-AM", "model tag (RXT-AM, WRN-AM, R18-AM-AT, MBV2)")
	algoList := flag.String("algo", "bnnorm", "comma-separated adaptation algorithms, one group each (noadapt, bnnorm, bnopt)")
	replicas := flag.Int("replicas", 0, "model replicas per group (0 = auto-size from the worker pool)")
	maxBatch := flag.Int("maxbatch", 128, "max images coalesced into one Process call (stateless algos)")
	linger := flag.Duration("linger", 2*time.Millisecond, "max wait to gather an under-full batch")
	queueCap := flag.Int("queuecap", 64, "pending request bound (backpressure)")
	admission := flag.String("admission", "block", "full-queue policy: block (wait) or shed (reject with 429/ErrOverloaded)")
	scaleRange := flag.String("scale", "", "autoscale the replica pool within min:max (e.g. 1:8; empty = fixed pool)")
	scaleEvery := flag.Duration("scale-interval", 250*time.Millisecond, "autoscale evaluation period")
	timeout := flag.Duration("timeout", 30*time.Second, "server-side deadline per wire-API submit")
	workers := flag.Int("workers", 0, "parallel pool width (0 = GOMAXPROCS)")
	doTrain := flag.Bool("train", false, "robust-train the repro-scale model first (slower, meaningful error rates)")
	httpAddr := flag.String("http", "127.0.0.1:8080", "serve the wire API, /metrics, /debug/streams and /debug/trace on this address")
	watchdog := flag.Duration("watchdog", 0, "per-Process watchdog: a replica producing no result within this deadline is quarantined and replaced (0 = off)")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint each named session's adaptation state every K applied batches (0 = off)")
	recoverDir := flag.String("recover", "", "checkpoint spill directory: sessions checkpoint to disk here and resume from it across restarts")
	flag.Parse()

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	algos, err := parseAlgos(*algoList)
	if err != nil {
		fatal(err)
	}
	m, err := models.ByTag(*modelTag, rand.New(rand.NewSource(1)), models.ReproScale)
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		MaxBatch: *maxBatch, MaxLinger: *linger, QueueCap: *queueCap,
		Watchdog:   *watchdog,
		Checkpoint: serve.CheckpointConfig{Every: *ckptEvery, Dir: *recoverDir},
	}
	if *recoverDir != "" && *ckptEvery == 0 {
		// A spill directory without a cadence would scan but never write;
		// default to a sensible cadence so -recover alone works.
		cfg.Checkpoint.Every = 8
	}
	switch *admission {
	case "block":
		cfg.Admission = serve.AdmitBlock
	case "shed":
		cfg.Admission = serve.AdmitShed
	default:
		fatal(fmt.Errorf("unknown -admission %q (want block or shed)", *admission))
	}
	if *scaleRange != "" {
		min, max, err := parseScaleRange(*scaleRange)
		if err != nil {
			fatal(err)
		}
		cfg.Autoscale = serve.Autoscale{Enabled: true, Min: min, Max: max, Interval: *scaleEvery}
	}

	if *doTrain {
		// Seed 2024 is the dataset ttaload draws its streams from.
		fmt.Printf("robust-training %s (repro scale)...\n", m.Name)
		train.Train(m, data.NewGenerator(2024), train.Config{Regime: train.Robust, Epochs: 4, TrainSize: 1536, Seed: 1, Quiet: true})
	}

	reg := telemetry.NewRegistry()
	reg.GaugeFunc("edgetta_pool_workers", func() float64 { return float64(parallel.Workers()) })
	cfg.Registry = reg
	srv := serve.New(cfg)
	defer srv.Close()
	for _, algo := range algos {
		key, err := srv.AddGroup(m, algo, core.Config{}, *replicas)
		if err != nil {
			fatal(err)
		}
		snap, _ := srv.GroupSnapshot(key)
		fmt.Printf("serving %s: %d replicas (stateful=%v)", key, snap.Replicas, snap.Stateful)
		if snap.MaxReplicas > 0 {
			fmt.Printf(", autoscale %d:%d", snap.MinReplicas, snap.MaxReplicas)
		}
		fmt.Println()
	}
	fmt.Printf("pool width %d, maxbatch %d, linger %v, admission %s", parallel.Workers(), *maxBatch, *linger, *admission)
	if *watchdog > 0 {
		fmt.Printf(", watchdog %v", *watchdog)
	}
	fmt.Println()
	if names := srv.CheckpointedSessions(); len(names) > 0 {
		fmt.Printf("recovery: %d checkpointed session(s) resumable from %s\n", len(names), *recoverDir)
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wire API + observability: http://%s/v1/streams /metrics /debug/streams /debug/trace\n", ln.Addr())
	fmt.Println("serving (ctrl-C to exit)...")
	fatal(http.Serve(ln, buildMux(reg, srv, httpapi.Config{Timeout: *timeout})))
}

// parseAlgos parses the -algo comma list.
func parseAlgos(s string) ([]core.Algorithm, error) {
	var out []core.Algorithm
	for _, name := range strings.Split(s, ",") {
		algo, err := core.ParseAlgorithm(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, algo)
	}
	return out, nil
}

// parseScaleRange parses the -scale "min:max" form: two integers and
// nothing else, with 1 <= min <= max.
func parseScaleRange(s string) (min, max int, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	min, errLo := strconv.Atoi(lo)
	max, errHi := strconv.Atoi(hi)
	if !ok || errLo != nil || errHi != nil {
		return 0, 0, fmt.Errorf("parse -scale %q (want min:max, e.g. 1:8)", s)
	}
	if min < 1 || max < min {
		return 0, 0, fmt.Errorf("-scale %q: want 1 <= min <= max", s)
	}
	return min, max, nil
}

// buildMux wires the serving wire API and the observability endpoints
// over one listener. /debug/streams is served by the wire API handler, so
// its payload is exactly the serve.Snapshot JSON shape.
func buildMux(reg *telemetry.Registry, srv *serve.Server, hcfg httpapi.Config) *http.ServeMux {
	api := httpapi.New(srv, hcfg)
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(reg))
	mux.Handle("/debug/trace", telemetry.TraceHandler())
	mux.Handle("/debug/streams", api)
	mux.Handle("/v1/", api)
	return mux
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ttaserve:", err)
	os.Exit(1)
}
