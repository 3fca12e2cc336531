// Command scgnn-inspect examines a dataset's structure through the SC-GNN
// lens: degree statistics, partition quality, the connection-type census of
// Fig. 2(d), the semantic grouping (group sizes, EEP pick), and the
// resulting compression plans (the offline step between graph partition and
// node update in the paper's Fig. 8 framework), which -out also exports as
// JSON for external tooling.
//
// Usage:
//
//	scgnn-inspect -dataset reddit-sim -parts 4
//	scgnn-inspect -dataset pubmed-sim -parts 8 -cut random
//	scgnn-inspect -dataset pubmed-sim -parts 8 -groups 10 -drop-o2o -out plans.json
package main

import (
	"flag"
	"fmt"
	"os"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
	"scgnn/internal/persist"
	"scgnn/internal/trace"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command; it returns the exit status: 2 for a bad command line,
// which is refused before anything is generated, and 1 for a partition the
// planner refuses or a failed -out write.
func run(args []string) int {
	fs := flag.NewFlagSet("scgnn-inspect", flag.ExitOnError)
	var (
		dataset = fs.String("dataset", "reddit-sim", "dataset name")
		parts   = fs.Int("parts", 4, "number of partitions (1 or more)")
		cut     = fs.String("cut", "node-cut", "partitioner: node-cut, edge-cut, random")
		groups  = fs.Int("groups", 0, "semantic group count (0 = auto EEP)")
		jaccard = fs.Bool("jaccard", false, "group by the Jaccard similarity baseline")
		dropO2O = fs.Bool("drop-o2o", false, "apply the differential optimization (drop one-to-one edges)")
		out     = fs.String("out", "", "also write the plans as JSON to this file")
		seed    = fs.Int64("seed", 1, "random seed")
	)
	fs.Parse(args)

	if *parts < 1 {
		fmt.Fprintf(os.Stderr, "scgnn-inspect: -parts %d: want 1 or more\n", *parts)
		return 2
	}
	cutMethod, err := partition.ByName(*cut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-inspect:", err)
		return 2
	}
	ds, err := datasets.ByName(*dataset, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-inspect:", err)
		return 2
	}

	// BuildAllPlans refuses a partition graph.ValidatePartition refuses (an
	// empty part, say), so that failure lands before the report starts.
	part := partition.Partition(ds.Graph, *parts, cutMethod, partition.Config{Seed: *seed})
	cfg := core.PlanConfig{Grouping: core.GroupingConfig{K: *groups, Seed: *seed}}
	if *jaccard {
		cfg.Grouping.Sim = core.JaccardSimilarity{}
	}
	if *dropO2O {
		cfg.Drop = core.DropO2O
	}
	plans, err := core.BuildAllPlans(ds.Graph, part, *parts, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scgnn-inspect: %s×%d: %v\n", cutMethod, *parts, err)
		return 1
	}

	fmt.Printf("== %s ==\n", ds.Name)
	fmt.Printf("nodes %d, arcs %d, avg degree %.2f, max degree %d, classes %d, features %d\n",
		ds.NumNodes(), ds.Graph.NumEdges(), ds.Graph.AvgDegree(), ds.Graph.MaxDegree(),
		ds.NumClasses, ds.FeatureDim())
	fmt.Printf("splits: %d train / %d val / %d test\n\n",
		datasets.CountMask(ds.TrainMask), datasets.CountMask(ds.ValMask), datasets.CountMask(ds.TestMask))
	fmt.Printf("partition %s×%d: %s\n\n", cutMethod, *parts, partition.Evaluate(ds.Graph, part, *parts))

	// Connection-type census (Fig. 2(d)).
	census := graph.Census(graph.AllDBGs(ds.Graph, part, *parts))
	ct := trace.NewTable("connection-type census", "type", "connections", "edges", "edge share %")
	for _, typ := range graph.ConnTypes {
		ct.AddRow(typ.String(), census.Connections[typ], census.Edges[typ], 100*census.EdgeShare(typ))
	}
	ct.Render(os.Stdout)
	fmt.Println()

	// Semantic plans and their compression.
	pt := trace.NewTable("semantic plans", "pair", "groups", "o2o", "edges", "dropped", "vectors/round", "ratio")
	var totVec, totEdge int
	for _, p := range plans {
		pt.AddRow(fmt.Sprintf("%d→%d", p.SrcPart, p.DstPart),
			len(p.Groups), len(p.O2O), p.Grouping.NumEdges, p.DroppedEdges,
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

	if *out != "" {
		if err := writePlans(*out, plans); err != nil {
			fmt.Fprintln(os.Stderr, "scgnn-inspect:", err)
			return 1
		}
		fmt.Printf("\nwrote %d plans to %s\n", len(plans), *out)
	}
	return 0
}

// writePlans exports the plans to path as JSON. A failed Close fails the
// write: the file's last write may be what failed.
func writePlans(path string, plans []*core.PairPlan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = persist.ExportPlansJSON(f, plans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
