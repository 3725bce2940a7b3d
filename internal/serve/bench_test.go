package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"edgetta/internal/core"
	"edgetta/internal/data"
)

// BenchmarkServeMultiStream compares aggregate multi-stream throughput of
// the serving front-end against the baseline the ROADMAP item names: the
// same N corruption streams run as sequential core.RunStream episodes at
// the same worker count (setup excluded from the clock on both sides).
// The served path wins by coalescing small per-stream batches into
// Process calls big enough to fill the worker pool, and by overlapping
// per-stream data generation with compute across replicas; both effects
// need parallelism, so expect the served img/s advantage on multi-core
// pools (pool width 1 runs every kernel inline and leaves coalescing
// nothing to amortize — there the two paths are within a few percent).
func BenchmarkServeMultiStream(b *testing.B) {
	const (
		nStreams = 8
		total    = 64 // samples per stream
		batch    = 4  // per-stream adaptation batch
		severity = 3
	)
	base := testModel()
	gen := data.NewGenerator(1)

	b.Run("sequential-runstream", func(b *testing.B) {
		// Adapter setup (model clone) is excluded from the timed region,
		// mirroring the served paths where AddGroup precedes the clock.
		adapters := make([]core.Adapter, nStreams)
		for i := range adapters {
			a, err := core.New(core.NoAdapt, base.Clone(), core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			adapters[i] = a
		}
		for it := 0; it < b.N; it++ {
			start := time.Now()
			for i := 0; i < nStreams; i++ {
				c := data.AllCorruptions[i%len(data.AllCorruptions)]
				s := gen.NewStream(int64(100+i), total, c, severity)
				core.RunStream(adapters[i], s, batch)
			}
			reportImgPerSec(b, nStreams*total, time.Since(start))
		}
	})

	b.Run("served-coalesced", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			srv := New(Config{MaxBatch: nStreams * batch, MaxLinger: time.Millisecond, QueueCap: 2 * nStreams})
			key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < nStreams; i++ {
				st, err := srv.OpenStream(key)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(i int, st *Stream) {
					defer wg.Done()
					c := data.AllCorruptions[i%len(data.AllCorruptions)]
					s := gen.NewStream(int64(100+i), total, c, severity)
					for {
						x, _, ok := s.Next(batch)
						if !ok {
							return
						}
						if _, err := st.ProcessSeq(context.Background(), x, 0); err != nil {
							b.Error(err)
							return
						}
					}
				}(i, st)
			}
			wg.Wait()
			reportImgPerSec(b, nStreams*total, time.Since(start))
			srv.Close()
		}
	})

	b.Run("served-scenario-traffic", func(b *testing.B) {
		// Same served path under temporally-shifting traffic: every stream
		// feeds a ScheduledStream whose corruption switches mid-stream, so
		// the coalescer sees the mixed-distribution batches a real edge
		// deployment would produce instead of one fixed corruption per
		// stream.
		for it := 0; it < b.N; it++ {
			srv := New(Config{MaxBatch: nStreams * batch, MaxLinger: time.Millisecond, QueueCap: 2 * nStreams})
			key, err := srv.AddGroup(base, core.NoAdapt, core.Config{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < nStreams; i++ {
				st, err := srv.OpenStream(key)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(i int, st *Stream) {
					defer wg.Done()
					cs := []data.Corruption{
						data.AllCorruptions[i%len(data.AllCorruptions)],
						data.AllCorruptions[(i+5)%len(data.AllCorruptions)],
					}
					sc := data.AbruptSwitch("bench-switch", cs, severity, total/2)
					s, err := gen.NewScheduledStream(int64(100+i), sc)
					if err != nil {
						b.Error(err)
						return
					}
					for {
						x, _, ok := s.Next(batch)
						if !ok {
							return
						}
						if _, err := st.ProcessSeq(context.Background(), x, 0); err != nil {
							b.Error(err)
							return
						}
					}
				}(i, st)
			}
			wg.Wait()
			reportImgPerSec(b, nStreams*total, time.Since(start))
			srv.Close()
		}
	})

	b.Run("served-bnnorm-shared", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			srv := New(Config{QueueCap: 2 * nStreams})
			key, err := srv.AddGroup(base, core.BNNorm, core.Config{}, 0)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			var wg sync.WaitGroup
			for i := 0; i < nStreams; i++ {
				st, err := srv.OpenStream(key)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func(i int, st *Stream) {
					defer wg.Done()
					c := data.AllCorruptions[i%len(data.AllCorruptions)]
					s := gen.NewStream(int64(100+i), total, c, severity)
					for {
						x, _, ok := s.Next(batch)
						if !ok {
							return
						}
						if _, err := st.ProcessSeq(context.Background(), x, 0); err != nil {
							b.Error(err)
							return
						}
					}
				}(i, st)
			}
			wg.Wait()
			reportImgPerSec(b, nStreams*total, time.Since(start))
			srv.Close()
		}
	})
}

func reportImgPerSec(b *testing.B, images int, elapsed time.Duration) {
	if elapsed > 0 {
		b.ReportMetric(float64(images)/elapsed.Seconds(), "img/s")
	}
}
