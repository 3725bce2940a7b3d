// Multistream: the serving deployment the ROADMAP targets — many
// concurrent corruption streams multiplexed over a few shared model
// replicas — next to the benchmark-style baseline of one private adapter
// per stream run sequentially. The demo robust-trains a small model, then
// serves 8 streams twice (No-Adapt with cross-stream batch coalescing,
// BN-Norm with per-stream state over shared replicas) and shows that the
// served error rates match the sequential ones exactly: serving changes
// the schedule, never the math.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
	"edgetta/internal/models"
	"edgetta/internal/parallel"
	"edgetta/internal/serve"
	"edgetta/internal/train"
)

const (
	nStreams = 8
	samples  = 160 // per stream
	batch    = 16
	severity = 4
)

func main() {
	m := models.WideResNet402(rand.New(rand.NewSource(1)), models.ReproScale)
	gen := data.NewGenerator(2024)
	fmt.Println("robust-training WRN (repro scale) on SynCIFAR...")
	train.Train(m, gen, train.Config{
		Regime: train.Robust, Epochs: 3, TrainSize: 1024, Seed: 1, Quiet: true,
	})

	for _, algo := range []core.Algorithm{core.NoAdapt, core.BNNorm} {
		fmt.Printf("\n=== %s: %d streams, severity %d, pool width %d ===\n",
			algo, nStreams, severity, parallel.Workers())

		// Baseline: each stream owns a private adapter over its own full
		// model copy (8x the weight memory of a shared replica), streams
		// run back to back. Setup is excluded from the clock, as it is
		// for the server (AddGroup below precedes its clock).
		adapters := make([]core.Adapter, nStreams)
		for i := range adapters {
			a, err := core.New(algo, m.Clone(), core.Config{})
			if err != nil {
				panic(err)
			}
			adapters[i] = a
		}
		seqErr := make([]float64, nStreams)
		seqStart := time.Now()
		for i := 0; i < nStreams; i++ {
			seqErr[i] = core.RunStream(adapters[i], streamFor(gen, i), batch).ErrorRate
		}
		seqWall := time.Since(seqStart)

		// Served: shared replicas, coalescing for the stateless algorithm.
		srv := serve.New(serve.Config{MaxBatch: nStreams * batch, MaxLinger: 2 * time.Millisecond})
		key, err := srv.AddGroup(m, algo, core.Config{}, 0)
		if err != nil {
			panic(err)
		}
		srvErr := make([]float64, nStreams)
		srvStats := make([]serve.StreamSnapshot, nStreams)
		srvStart := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < nStreams; i++ {
			st, err := srv.OpenStream(key)
			if err != nil {
				panic(err)
			}
			wg.Add(1)
			go func(i int, st *serve.Stream) {
				defer wg.Done()
				s := streamFor(gen, i)
				correct, seen := 0, 0
				for {
					x, labels, ok := s.Next(batch)
					if !ok {
						break
					}
					logits, err := st.ProcessCtx(context.Background(), x)
					if err != nil {
						panic(err)
					}
					for j, p := range logits.ArgmaxRows() {
						if p == labels[j] {
							correct++
						}
					}
					seen += len(labels)
				}
				srvErr[i] = 1 - float64(correct)/float64(seen)
				srvStats[i] = st.Snapshot()
			}(i, st)
		}
		wg.Wait()
		srvWall := time.Since(srvStart)

		fmt.Printf("%-3s %-18s %10s %10s %11s %11s\n", "id", "corruption", "seq err", "served err", "p50", "p99")
		fmt.Println(strings.Repeat("-", 68))
		mismatch := false
		for i := 0; i < nStreams; i++ {
			mark := ""
			if srvErr[i] != seqErr[i] {
				mark, mismatch = "  <- MISMATCH", true
			}
			fmt.Printf("%-3d %-18s %9.1f%% %9.1f%% %11v %11v%s\n",
				i, data.AllCorruptions[i%len(data.AllCorruptions)],
				100*seqErr[i], 100*srvErr[i],
				srvStats[i].E2E.P50.Round(time.Microsecond),
				srvStats[i].E2E.P99.Round(time.Microsecond), mark)
		}
		g, _ := srv.GroupSnapshot(key)
		total := nStreams * samples
		fmt.Printf("\nsequential: %v (%.1f img/s)   served: %v (%.1f img/s)\n",
			seqWall.Round(time.Millisecond), float64(total)/seqWall.Seconds(),
			srvWall.Round(time.Millisecond), float64(total)/srvWall.Seconds())
		fmt.Printf("replicas: %d   %d requests -> %d Process calls (mean %.1f img/call, max %d)\n",
			g.Replicas, g.Requests, g.Batches, g.MeanCoalesced, g.MaxCoalesced)
		if mismatch {
			fmt.Println("ERROR: served results diverged from sequential results")
		} else {
			fmt.Println("served error rates are identical to sequential runs, as guaranteed")
		}
		srv.Close()
	}
}

func streamFor(gen *data.Generator, i int) *data.Stream {
	c := data.AllCorruptions[i%len(data.AllCorruptions)]
	return gen.NewStream(int64(100+i), samples, c, severity)
}
