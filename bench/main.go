// Command bench is the repository's benchmark: four fixed-work workloads
// over the adaptation core and the serving tier, measured from outside
// through the layers' public functions. See README.md for what each
// workload and metric is for, and BENCHMARK.json for the contract.
//
//	go run ./bench -workload adapt_bnopt_wrn -seed 1            # gated run
//	go run ./bench -workload adapt_bnopt_wrn -seed 1 -trace 1   # per-layer run + Chrome trace
//	go run ./bench -aa 5                                        # A/A: same code, two sets
//	go run ./bench -train                                       # regenerate testdata/*.bin
//
// Every run prints each metric by name with its unit, then one JSON line,
// and exits non-zero if any op failed or any output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the pregenerated inputs")
	seconds := fs.Int("seconds", 18, "nominal timed seconds: seconds/3 fixed-work passes, at least one")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a Chrome trace instead of the gated metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace path (default .bench_build/trace-<workload>.json)")
	weights := fs.String("weights", filepath.Join("bench", "testdata"), "directory of the committed weights")
	train := fs.Bool("train", false, "retrain the repro-scale models and rewrite the committed weights")
	aa := fs.Int("aa", 0, "run every workload as two interleaved sets of this many runs and compare them")
	aaNoise := fs.Bool("aa-noise", false, "with -aa: run a single-core spin loop beside the benchmark as a synthetic neighbour")
	spin := fs.Bool("spin", false, "internal: be the -aa-noise neighbour (spin until standard input closes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *spin:
		spinUntilEOF(os.Stdin)
		return 0
	case *train:
		if err := trainWeights(*weights, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *aa > 0:
		ok, err := runAA(*aa, *seed, *seconds, *aaNoise, stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	w, err := workloadByName(*name)
	if err != nil {
		return fail(err)
	}
	o := runOpts{w: w, seed: *seed, passes: max(1, *seconds/passSeconds), weights: *weights, traceOut: *traceOut}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	var res result
	if *trace != 0 {
		res, err = tracedRun(o, stdout)
	} else {
		res, err = timedRun(o, stdout)
	}
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
