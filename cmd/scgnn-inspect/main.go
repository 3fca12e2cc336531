// Command scgnn-inspect examines a dataset's structure through the SC-GNN
// lens: degree statistics, partition quality, the connection-type census of
// Fig. 2(d), the semantic grouping (group sizes, EEP pick), and the
// resulting compression plan.
//
// Usage:
//
//	scgnn-inspect -dataset reddit-sim -parts 4
//	scgnn-inspect -dataset pubmed-sim -parts 8 -cut random
package main

import (
	"flag"
	"fmt"
	"os"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/trace"
)

func main() {
	var (
		dataset = flag.String("dataset", "reddit-sim", "dataset name")
		parts   = flag.Int("parts", 4, "number of partitions")
		cut     = flag.String("cut", "node-cut", "partitioner: node-cut, edge-cut, random")
		groups  = flag.Int("groups", 0, "semantic group count (0 = auto EEP)")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	ds, err := datasets.ByName(*dataset, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-inspect:", err)
		os.Exit(2)
	}
	cutMethod, err := partition.ByName(*cut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-inspect:", err)
		os.Exit(2)
	}

	fmt.Printf("== %s ==\n", ds.Name)
	fmt.Printf("nodes %d, arcs %d, avg degree %.2f, max degree %d, classes %d, features %d\n",
		ds.NumNodes(), ds.Graph.NumEdges(), ds.Graph.AvgDegree(), ds.Graph.MaxDegree(),
		ds.NumClasses, ds.FeatureDim())
	fmt.Printf("splits: %d train / %d val / %d test\n\n",
		datasets.CountMask(ds.TrainMask), datasets.CountMask(ds.ValMask), datasets.CountMask(ds.TestMask))

	part := partition.Partition(ds.Graph, *parts, cutMethod, partition.Config{Seed: *seed})
	fmt.Printf("partition %s×%d: %s\n\n", cutMethod, *parts, partition.Evaluate(ds.Graph, part, *parts))

	// Connection-type census (Fig. 2(d)).
	dbgs := graph.AllDBGs(ds.Graph, part, *parts)
	census := graph.Census(dbgs)
	ct := trace.NewTable("connection-type census", "type", "connections", "edges", "edge share %")
	for _, typ := range graph.ConnTypes {
		ct.AddRow(typ.String(), census.Connections[typ], census.Edges[typ], 100*census.EdgeShare(typ))
	}
	ct.Render(os.Stdout)
	fmt.Println()

	// Semantic plans and their compression.
	plans, err := core.BuildAllPlans(ds.Graph, part, *parts,
		core.PlanConfig{Grouping: core.GroupingConfig{K: *groups, Seed: *seed}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-inspect:", err)
		os.Exit(2)
	}
	pt := trace.NewTable("semantic plans", "pair", "groups", "o2o", "edges", "vectors/round", "ratio")
	var totVec, totEdge int
	for _, p := range plans {
		pt.AddRow(fmt.Sprintf("%d→%d", p.SrcPart, p.DstPart),
			len(p.Groups), len(p.O2O), p.Grouping.NumEdges,
			p.VectorsPerRound(), p.CompressionRatio())
		totVec += p.VectorsPerRound()
		totEdge += p.Grouping.NumEdges
	}
	pt.Render(os.Stdout)
	if totVec > 0 {
		fmt.Printf("\noverall: %d cross edges → %d vectors/round (%.1fx message compression)\n",
			totEdge, totVec, float64(totEdge)/float64(totVec))
	}

	// Grouping detail of the busiest pair.
	var busiest *core.PairPlan
	for _, p := range plans {
		if busiest == nil || p.Grouping.NumEdges > busiest.Grouping.NumEdges {
			busiest = p
		}
	}
	if busiest != nil {
		st := busiest.Grouping.Stats()
		fmt.Printf("\nbusiest pair %d→%d: K=%d (EEP), %d groups (%d natural), mean size %.1f:1, max %d\n",
			busiest.SrcPart, busiest.DstPart, busiest.Grouping.K,
			st.NumGroups, st.NaturalGroups, st.MeanGroupSize, st.MaxGroupSize)
	}
}
