// Planning-pipeline benchmarks: the offline step of Fig. 8 (DBG extraction,
// similarity embedding, EEP k-means sweep, L-SALSA weights) on the dense
// Reddit-like graph at 8 and 16 partitions. `make bench` records these in
// BENCH_plan.json (before/after), mirroring the BENCH_worker.json flow.
package scgnn_test

import (
	"math/rand"
	"sync"
	"testing"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
)

func planBenchSetup(b *testing.B, nparts int) (*datasets.Dataset, []int) {
	b.Helper()
	ds := datasets.RedditSim(1)
	part := partition.Partition(ds.Graph, nparts, partition.NodeCut, partition.Config{Seed: 1})
	return ds, part
}

// BenchmarkAllDBGs* isolates the DBG-extraction stage: materializing the
// directed bipartite boundary graph of every ordered partition pair.
func benchAllDBGs(b *testing.B, nparts int) {
	ds, part := planBenchSetup(b, nparts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbgs := graph.AllDBGs(ds.Graph, part, nparts)
		if len(dbgs) == 0 {
			b.Fatal("no DBGs")
		}
	}
}

func BenchmarkAllDBGs8P(b *testing.B)  { benchAllDBGs(b, 8) }
func BenchmarkAllDBGs16P(b *testing.B) { benchAllDBGs(b, 16) }

// BenchmarkPlanPipeline* runs the full offline planning pass with auto group
// counts, so every pair pays the EEP inertia sweep over k ∈ [2,20] — the
// dominant term of the planning wall.
func benchPlanPipeline(b *testing.B, nparts int) {
	ds, part := planBenchSetup(b, nparts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plans, err := core.BuildAllPlans(ds.Graph, part, nparts,
			core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if len(plans) == 0 {
			b.Fatal("no plans")
		}
	}
}

// The pool runs min(GOMAXPROCS, pairs) plan builds at once, so -cpu is the
// fan-out sweep (`make bench` runs 1 and 2); plans are identical for every
// value (core.TestBuildAllPlansWorkerInvariance).
func BenchmarkPlanPipeline8P(b *testing.B)  { benchPlanPipeline(b, 8) }
func BenchmarkPlanPipeline16P(b *testing.B) { benchPlanPipeline(b, 16) }

// BenchmarkReplan* measures the incremental replanning cost as a function of
// the dirty-pair fraction. Each lane alternates the PlanCache between two
// fixed partitions, so every iteration is a Repartition whose dirty set is
// the bucket diff between them: Noop diffs an identical partition (0 dirty
// pairs — the cost floor is the O(N+E) re-bucketing sweep and the diff),
// TwoParts moves a dozen nodes between partitions 0 and 1 (only pairs
// touching those partitions rebuild), Shuffle reassigns 10% of all nodes
// (essentially every pair rebuilds), and Scratch is the from-scratch
// NewPlanCache ceiling. The dirtypairs/op metric makes the scaling explicit.
func benchReplan(b *testing.B, nparts int, perturb func([]int) []int) {
	ds, part := planBenchSetup(b, nparts)
	cfg := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}}
	next := perturb(part)
	if err := graph.ValidatePartition(ds.NumNodes(), next, nparts); err != nil {
		b.Fatal(err)
	}
	pc, err := core.NewPlanCache(ds.Graph, part, nparts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	parts := [2][]int{next, part}
	var dirty int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pc.Repartition(parts[i%2])
		if err != nil {
			b.Fatal(err)
		}
		dirty += int64(len(d))
	}
	b.ReportMetric(float64(dirty)/float64(b.N), "dirtypairs/op")
}

func replanNoop(part []int) []int {
	return append([]int(nil), part...)
}

func replanTwoParts(part []int) []int {
	next := append([]int(nil), part...)
	moved := 0
	for u := range next {
		if next[u] == 0 {
			next[u] = 1
			if moved++; moved == 12 {
				break
			}
		}
	}
	return next
}

func replanShuffle(part []int) []int {
	next := append([]int(nil), part...)
	rng := rand.New(rand.NewSource(7))
	nparts := 0
	for _, p := range part {
		if p+1 > nparts {
			nparts = p + 1
		}
	}
	for m := 0; m < len(next)/10; m++ {
		next[rng.Intn(len(next))] = rng.Intn(nparts)
	}
	return next
}

func BenchmarkReplanNoop8P(b *testing.B)     { benchReplan(b, 8, replanNoop) }
func BenchmarkReplanTwoParts8P(b *testing.B) { benchReplan(b, 8, replanTwoParts) }
func BenchmarkReplanShuffle8P(b *testing.B)  { benchReplan(b, 8, replanShuffle) }

func BenchmarkReplanScratch8P(b *testing.B) {
	ds, part := planBenchSetup(b, 8)
	cfg := core.PlanConfig{Grouping: core.GroupingConfig{Seed: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc, err := core.NewPlanCache(ds.Graph, part, 8, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(pc.Plans()) == 0 {
			b.Fatal("no plans")
		}
	}
}

// ---- 100k-preset dirty-fraction sweep ----------------------------------
//
// BenchmarkReplan100K* sweeps the dirty-pair fraction at the scale preset the
// verify gate builds (reddit-sim-100k, 8 partitions, 56 ordered pairs, the
// fixed K=8/MaxPivots=8 scale plan config). The fractions are realized by how
// far the perturbation reaches: Noop re-buckets an identical partition
// (0/56 — the floor is the O(N+E) sweep plus the offset-only diff), MoveOne
// moves one minimal-spread boundary node so only its own pair rebuilds
// (2/56), TwoParts drains 50 nodes from partition 0 into 1 so every pair
// touching either rebuilds (26/56 ≈ half), Global1Pct scatters 1% of all
// nodes (56/56 = all), and Scratch is the from-scratch NewPlanCache ceiling
// the all-dirty lane must stay comparable to (the replan-inversion
// regression guard, in benchmark form). dirtypairs/op records the realized
// fraction per lane.

var replan100K struct {
	once sync.Once
	ds   *datasets.Dataset
	part []int
}

func replan100KSetup(b *testing.B) (*datasets.Dataset, []int) {
	b.Helper()
	replan100K.once.Do(func() {
		replan100K.ds = datasets.RedditSim100K(1)
		replan100K.part = partition.Partition(replan100K.ds.Graph, 8, partition.EdgeCut, partition.Config{Seed: 3})
	})
	return replan100K.ds, replan100K.part
}

func scaleBenchPlanConfig() core.PlanConfig {
	return core.PlanConfig{Grouping: core.GroupingConfig{K: 8, MaxPivots: 8, Seed: 7}}
}

func benchReplan100K(b *testing.B, perturb func([]int) []int) {
	ds, part := replan100KSetup(b)
	next := perturb(part)
	if err := graph.ValidatePartition(ds.NumNodes(), next, 8); err != nil {
		b.Fatal(err)
	}
	pc, err := core.NewPlanCache(ds.Graph, part, 8, scaleBenchPlanConfig())
	if err != nil {
		b.Fatal(err)
	}
	parts := [2][]int{next, part}
	var dirty int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := pc.Repartition(parts[i%2])
		if err != nil {
			b.Fatal(err)
		}
		dirty += int64(len(d))
	}
	b.ReportMetric(float64(dirty)/float64(b.N), "dirtypairs/op")
}

// replanMoveOne moves a single boundary node chosen for minimal reach: the
// node whose cross arcs span the fewest distinct partitions, moved into one
// of those partitions. With spread 1 the dirty set collapses to the (p,q)
// and (q,p) pairs — the smallest non-empty replan a move can cause.
func replanMoveOne(ds *datasets.Dataset) func([]int) []int {
	return func(part []int) []int {
		next := append([]int(nil), part...)
		bestU, bestQ, bestSpread := -1, 0, int(^uint(0)>>1)
		for u := 0; u < len(next) && bestSpread > 1; u++ {
			var seen [8]bool
			spread, q := 0, 0
			for _, v := range ds.Graph.Neighbors(int32(u)) {
				if part[v] != part[u] && !seen[part[v]] {
					seen[part[v]] = true
					spread++
					q = part[v]
				}
			}
			if spread > 0 && spread < bestSpread {
				bestU, bestQ, bestSpread = u, q, spread
			}
		}
		if bestU >= 0 {
			next[bestU] = bestQ
		}
		return next
	}
}

func replanDrain(count int) func([]int) []int {
	return func(part []int) []int {
		next := append([]int(nil), part...)
		moved := 0
		for u := range next {
			if next[u] == 0 {
				next[u] = 1
				if moved++; moved == count {
					break
				}
			}
		}
		return next
	}
}

func replanGlobal(frac float64) func([]int) []int {
	return func(part []int) []int {
		next := append([]int(nil), part...)
		rng := rand.New(rand.NewSource(9))
		for m := 0; m < int(float64(len(next))*frac); m++ {
			next[rng.Intn(len(next))] = rng.Intn(8)
		}
		return next
	}
}

func BenchmarkReplan100KNoop(b *testing.B) { benchReplan100K(b, replanNoop) }
func BenchmarkReplan100KMoveOne(b *testing.B) {
	ds, _ := replan100KSetup(b)
	benchReplan100K(b, replanMoveOne(ds))
}
func BenchmarkReplan100KTwoParts(b *testing.B)   { benchReplan100K(b, replanDrain(50)) }
func BenchmarkReplan100KGlobal1Pct(b *testing.B) { benchReplan100K(b, replanGlobal(0.01)) }

func BenchmarkReplan100KScratch(b *testing.B) {
	ds, part := replan100KSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc, err := core.NewPlanCache(ds.Graph, part, 8, scaleBenchPlanConfig())
		if err != nil {
			b.Fatal(err)
		}
		if len(pc.Plans()) == 0 {
			b.Fatal("no plans")
		}
	}
}
