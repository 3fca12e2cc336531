package core

import (
	"bytes"
	"testing"

	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
)

// scalePlanConfig bounds the planning pipeline to what a 100k-node preset can
// afford in a unit test: a fixed group count (skipping the 19-run EEP k-means
// sweep) and a trimmed pivot embedding. The scale bench lane uses the same
// shape, so this is the configuration the BENCH_scale.json rows measure.
func scalePlanConfig() PlanConfig {
	return PlanConfig{Grouping: GroupingConfig{K: 8, MaxPivots: 8, Seed: 7}}
}

// TestPlanPipelineAtScale drives the full pipeline — streaming generation,
// BFS+refine partitioning, one-sweep bucketing, per-pair plan builds — at the
// 100k scale preset, and pins that the plans built on the generator's
// streamed CSR are byte-identical (MarshalPlans, IEEE-754 hex) to plans built
// on the same arcs passed to graph.New as a slice. That constructor is the
// per-node-slice reference's equal at this size and degree
// (graph.TestNewMatchesReferenceAtScale), so the plans are the reference's
// too. Skipped under the race detector (instrumentation makes the double plan
// build take minutes on one core); the race lane runs TestScale100KSmoke.
func TestPlanPipelineAtScale(t *testing.T) {
	if raceEnabled {
		t.Skip("full 100k double plan build is too slow under -race; see TestScale100KSmoke")
	}
	if testing.Short() {
		t.Skip("100k preset generation in -short mode")
	}
	d := datasets.RedditSim100K(1)
	g := d.Graph
	const nparts = 4
	part := partition.Partition(g, nparts, partition.EdgeCut, partition.Config{Seed: 3})
	if err := graph.ValidatePartition(g.NumNodes(), part, nparts); err != nil {
		t.Fatal(err)
	}
	cfg := scalePlanConfig()
	flat, err := BuildAllPlans(g, part, nparts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(flat) == 0 {
		t.Fatal("no cross-partition pairs at 100k — partitioning degenerated")
	}
	// Rebuild the same graph from its arc slice (already deduplicated and
	// symmetric, it round-trips through Edges) and replan: any divergence in
	// CSR layout would shift DBG extraction order and show up in the
	// marshalled plan bytes.
	rebuilt := graph.New(g.NumNodes(), g.Edges())
	rebuiltPlans, err := BuildAllPlans(rebuilt, part, nparts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalPlans(flat), MarshalPlans(rebuiltPlans)) {
		t.Fatal("plans differ between the streamed and the slice-built CSR at 100k")
	}
}

// TestScale100KSmoke is the race-lane slice of the scale suite: streaming
// generation of the 100k preset, realized-degree contract, partitioning, and
// the one-sweep arc bucketing — everything up to (but not including) the
// per-pair plan builds, which TestPlanPipelineAtScale covers in the
// uninstrumented lane.
func TestScale100KSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k preset generation in -short mode")
	}
	d := datasets.RedditSim100K(1)
	g := d.Graph
	if g.NumNodes() != 100_000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if avg := g.AvgDegree(); avg < 32*0.98 || avg > 32*1.02 {
		t.Fatalf("realized degree %.2f, want 32±2%%", avg)
	}
	const nparts = 8
	part := partition.Partition(g, nparts, partition.EdgeCut, partition.Config{Seed: 3})
	if err := graph.ValidatePartition(g.NumNodes(), part, nparts); err != nil {
		t.Fatal(err)
	}
	b := graph.ExtractArcBuckets(g, part, nparts)
	if b.NumArcs() == 0 || b.NumArcs() >= g.NumEdges() {
		t.Fatalf("cross arcs = %d of %d total", b.NumArcs(), g.NumEdges())
	}
	// The bucketing must account for every cross arc the partition induces.
	cross := 0
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if part[u] != part[v] {
				cross++
			}
		}
	}
	if b.NumArcs() != cross {
		t.Fatalf("bucketed %d arcs, partition induces %d", b.NumArcs(), cross)
	}
}
