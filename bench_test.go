// Benchmarks regenerating every table and figure of the paper (DESIGN.md §4
// maps experiment ids to modules). Each Benchmark<ID> drives the same
// builder the cmd/scgnn-bench harness uses, in Quick mode so `go test
// -bench=.` terminates in minutes; the full-scale numbers for EXPERIMENTS.md
// come from `go run ./cmd/scgnn-bench -exp all`.
//
// The kernel benchmarks at the bottom measure the hot paths the cost model's
// per-method overheads were calibrated against.
package scgnn_test

import (
	"math/rand"
	"testing"

	"scgnn"
	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/exp"
	"scgnn/internal/partition"
	"scgnn/internal/tensor"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := exp.Options{Seed: 1, Quick: true, Partitions: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Tables) == 0 && len(r.Figures) == 0 {
			b.Fatalf("%s produced an empty report", id)
		}
	}
}

// Fig. 2(b): volume/accuracy Pareto frontier of the three baselines vs the
// semantic point.
func BenchmarkFig2b(b *testing.B) { benchExperiment(b, "fig2b") }

// Fig. 2(d): connection-type census (M2M dominance).
func BenchmarkFig2d(b *testing.B) { benchExperiment(b, "fig2d") }

// Fig. 4(a): window-sliding cohesion, semantic vs Jaccard.
func BenchmarkFig4a(b *testing.B) { benchExperiment(b, "fig4a") }

// Fig. 4(b): inertia-vs-group-number traversal with EEP selection.
func BenchmarkFig4b(b *testing.B) { benchExperiment(b, "fig4b") }

// Fig. 6: PCA grouping visualization + silhouette comparison.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// Fig. 9: normalized traffic volume of the four methods.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Fig. 10: group-size distributions and means.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Table 1: comm volume / epoch time / accuracy across datasets × methods ×
// partition counts.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Fig. 11: differential optimization (drop one connection type at a time).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Fig. 12(a): compression ratio vs average degree.
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a") }

// Fig. 12(b): cross-compatibility of method combinations.
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b") }

// Table 2: node-cut vs edge-cut vs random partitioners under SC-GNN.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// --- kernel benchmarks ---

// BenchmarkSemanticPlanBuild measures the offline grouping cost (similarity
// embedding + k-means + L-SALSA weights) for one dense partitioned graph.
func BenchmarkSemanticPlanBuild(b *testing.B) {
	ds := datasets.RedditSim(1)
	part := partition.Partition(ds.Graph, 4, partition.NodeCut, partition.Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plans, err := core.BuildAllPlans(ds.Graph, part, 4,
			core.PlanConfig{Grouping: core.GroupingConfig{K: 8, Seed: int64(i)}})
		if err != nil {
			b.Fatal(err)
		}
		if len(plans) == 0 {
			b.Fatal("no plans")
		}
	}
}

// BenchmarkEpochVanilla and BenchmarkEpochSemantic measure one full training
// epoch (forward + backward + optimizer) under each exchange, showing the
// wall-clock side of the Table 1 story.
func BenchmarkEpochVanilla(b *testing.B)  { benchEpoch(b, dist.Vanilla()) }
func BenchmarkEpochSemantic(b *testing.B) { benchEpoch(b, scgnn.Semantic(1)) }
func BenchmarkEpochQuant8(b *testing.B)   { benchEpoch(b, dist.Quant(8)) }
func BenchmarkEpochSampling(b *testing.B) { benchEpoch(b, dist.Sampling(0.1, 1)) }

func benchEpoch(b *testing.B, cfg dist.Config) {
	b.Helper()
	ds := datasets.PubMedSim(1)
	part := partition.Partition(ds.Graph, 4, partition.NodeCut, partition.Config{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Run(ds, part, 4, cfg, dist.RunConfig{Epochs: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExchange8P* isolates the engine's aggregate round at 8
// partitions: one epoch of aggregate Forward+Backward (no model compute) on
// the dense Reddit-like graph, its 8 goroutines on as many processors as
// -cpu gives (`make bench` runs 1 and 2). Results are bit-identical for every
// GOMAXPROCS (see dist.TestSequentialParallelEquivalence).
func BenchmarkEngineExchange8P(b *testing.B) {
	eng, h := exchangeSetup(b, dist.Config{Seed: 1})
	benchExchange(b, eng, h)
}

func BenchmarkEngineExchange8PSemantic(b *testing.B) {
	eng, h := exchangeSetup(b, dist.Config{
		Semantic: true,
		Plan:     core.PlanConfig{Grouping: core.GroupingConfig{K: 8, Seed: 1}},
		Seed:     1,
	})
	benchExchange(b, eng, h)
}

func exchangeSetup(b *testing.B, cfg dist.Config) (*dist.Engine, *tensor.Matrix) {
	b.Helper()
	ds := datasets.RedditSim(1)
	part := partition.Partition(ds.Graph, 8, partition.NodeCut, partition.Config{Seed: 1})
	eng := dist.NewEngine(ds.Graph, part, 8, cfg)
	h := tensor.New(ds.NumNodes(), 32)
	rng := rand.New(rand.NewSource(1))
	for i := range h.Data {
		h.Data[i] = rng.NormFloat64()
	}
	return eng, h
}

func benchExchange(b *testing.B, eng *dist.Engine, h *tensor.Matrix) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StartEpoch(i)
		eng.Forward(h)
		eng.Backward(h)
	}
}
