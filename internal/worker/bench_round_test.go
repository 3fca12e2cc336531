package worker

import (
	"sync"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/exchange"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
)

// roundBenchEnv memoizes one scale preset's dataset, partition, and a
// semantic cluster across the round benchmarks: the 100k preset costs
// seconds to generate and plan. (Sub-benchmarks keep the "/kernel" suffix the
// recorded BENCH_worker.json rows carry.)
type roundBenchEnv struct {
	d       *datasets.Dataset
	part    []int
	cluster *Cluster
	h       *tensor.Matrix
	out     *tensor.Matrix
}

var roundBenchEnvs = map[string]*roundBenchEnv{}

// roundBenchNParts matches the scale study's acceptance configuration
// (exp.ScaleBench default).
const roundBenchNParts = 8

func roundBench(b *testing.B, preset string) *roundBenchEnv {
	b.Helper()
	if env, ok := roundBenchEnvs[preset]; ok {
		return env
	}
	d, err := datasets.ByName(preset, 1)
	if err != nil {
		b.Fatal(err)
	}
	part := partition.Partition(d.Graph, roundBenchNParts, partition.EdgeCut, partition.Config{Seed: 1})
	cfg := core.PlanConfig{Grouping: core.GroupingConfig{K: 8, MaxPivots: 8, Seed: 1}}
	env := &roundBenchEnv{
		d:       d,
		part:    part,
		cluster: NewClusterFromConfig(d.Graph, part, roundBenchNParts, exchange.Config{Semantic: true, Plan: cfg}),
		h:       d.Features,
		out:     tensor.New(d.NumNodes(), d.FeatureDim()),
	}
	roundBenchEnvs[preset] = env
	return env
}

// BenchmarkLocalPhase measures the within-partition aggregation — the
// dominant slice of a round's profile — for every worker, on the compiled
// gather plans: one after another ("/kernel"), and one goroutine per
// partition at once ("/parallel"), as a round runs them. The gather is bound
// by the memory system, so the concurrent row also pays the contention for
// it that the serial row hides.
func BenchmarkLocalPhase(b *testing.B) {
	for _, preset := range []string{"reddit-sim-10k", "reddit-sim-100k"} {
		b.Run(preset+"/kernel", func(b *testing.B) {
			env := roundBench(b, preset)
			c := env.cluster
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for me := 0; me < roundBenchNParts; me++ {
					c.localPhase(me, env.h, env.out)
				}
			}
		})
		b.Run(preset+"/parallel", func(b *testing.B) {
			env := roundBench(b, preset)
			c := env.cluster
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				wg.Add(roundBenchNParts)
				for me := 0; me < roundBenchNParts; me++ {
					go func(me int) {
						defer wg.Done()
						c.localPhase(me, env.h, env.out)
					}(me)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkRoundEndToEnd measures a full semantic aggregate round —
// local aggregation, encode, wire, decode — in the allocation-free
// AggregateInto steady state.
func BenchmarkRoundEndToEnd(b *testing.B) {
	for _, preset := range []string{"reddit-sim-10k", "reddit-sim-100k"} {
		b.Run(preset+"/kernel", func(b *testing.B) {
			env := roundBench(b, preset)
			c := env.cluster
			c.StartEpoch(0)
			if err := c.AggregateInto(env.out, env.h, false); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.AggregateInto(env.out, env.h, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
