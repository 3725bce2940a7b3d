package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec is BENCHMARK.json: the one place the regression bounds live.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runAA is the benchmark's own repeatability test, by the rule the
// acceptance of a benchmark is written in: every workload runs as two
// interleaved sets (A B A B …) of k runs of this same binary, run i of
// both sets on seed+i. For each end-to-end metric it prints both medians
// and quartiles, the spread (interquartile distance ÷ median, the worse of
// the two sets) and the gap between the medians, and fails if a gap or a
// spread exceeds the metric's bound (the spread of setup_s is exempt) or if
// top1_acc_pct differs between two runs of one seed.
func runAA(k int, seed int64, seconds int, noise bool, out io.Writer) (bool, error) {
	if k < 2 {
		return false, fmt.Errorf("-aa needs at least 2 runs per set for quartiles")
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	if noise {
		stop, err := startNeighbour(exe)
		if err != nil {
			return false, err
		}
		defer stop()
		fmt.Fprintln(out, "synthetic neighbour: one spin loop on one core for the whole A/A")
	}

	ok := true
	for _, w := range spec.Workloads {
		// sets[s][metric] = the k values of set s.
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for s := range sets {
				res, err := runChild(exe, w.Name, seed+int64(i), seconds)
				if err != nil {
					return false, fmt.Errorf("%s seed %d: %w", w.Name, seed+int64(i), err)
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(out, "\n%s, %d runs per set, seeds %d..%d\n", w.Name, k, seed, seed+int64(k)-1)
		fmt.Fprintf(out, "%-18s %-6s %12s %25s %12s %25s %8s %8s %10s\n",
			"metric", "unit", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "spread", "gap", "gap/bound")
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			spread := math.Max((a3-a1)/am, (b3-b1)/bm)
			gap := math.Abs(bm-am) / am
			verdict := ""
			if gap > m.Bound {
				verdict, ok = " GAP>BOUND", false
			}
			if spread > m.Bound && m.Name != "setup_s" {
				verdict, ok = verdict+" SPREAD>BOUND", false
			}
			if m.Name == "top1_acc_pct" {
				for i := range a {
					if a[i] != b[i] {
						verdict, ok = verdict+" NOT-EXACT", false
					}
				}
			}
			fmt.Fprintf(out, "%-18s %-6s %12.4f %25s %12.4f %25s %7.2f%% %7.2f%% %10.2f%s\n",
				m.Name, m.Unit, am, fmt.Sprintf("[%.4f, %.4f]", a1, a3), bm, fmt.Sprintf("[%.4f, %.4f]", b1, b3),
				100*spread, 100*gap, gap/m.Bound, verdict)
		}
	}
	if ok {
		fmt.Fprintln(out, "\nA/A passed: every gap and spread is within its bound")
	} else {
		fmt.Fprintln(out, "\nA/A FAILED")
	}
	return ok, nil
}

// runChild runs one gated run of this binary and parses its result line.
func runChild(exe, workload string, seed int64, seconds int) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%w\n%s", err, raw)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("parse result line: %w", err)
	}
	return res, nil
}

// startNeighbour spawns this binary as a spin loop and returns the
// function that stops it and waits for it to exit.
func startNeighbour(exe string) (stop func(), err error) {
	cmd := exec.Command(exe, "-spin")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return func() {
		stdin.Close()
		cmd.Wait()
	}, nil
}

// spinUntilEOF burns one core until its standard input closes, which it
// does when the parent stops it or dies.
func spinUntilEOF(stdin io.Reader) {
	done := make(chan struct{})
	go func() {
		bufio.NewReader(stdin).ReadByte()
		close(done)
	}()
	for x := uint64(1); ; x = x*6364136223846793005 + 1442695040888963407 {
		if x&0xfffff == 0 {
			select {
			case <-done:
				return
			default:
			}
		}
	}
}
