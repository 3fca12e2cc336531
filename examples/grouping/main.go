// Grouping: dissect SC-GNN's semantic grouping on one dataset — the
// connection-type census (Fig. 2(d)), the semantic-vs-Jaccard similarity
// contrast (Fig. 3(b)), the per-pair compression plans with their EEP-chosen
// group counts (Fig. 4(b)), and the resulting message compression.
//
//	go run ./examples/grouping
package main

import (
	"fmt"
	"log"

	"scgnn"
)

func main() {
	ds, err := scgnn.LoadDataset("ogbn-products-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)

	// Connection-type census: M2M should dominate by a wide margin.
	census := scgnn.CensusOf(ds, part, 4)
	fmt.Println("connection-type census (Fig. 2(d)):")
	fmt.Printf("  M2M carries %.2f%% of cross-partition edges\n", 100*census.EdgeShare(3))
	fmt.Printf("  O2O carries %.2f%%\n\n", 100*census.EdgeShare(0))

	// Semantic plans under the paper's similarity...
	semPlans, err := scgnn.BuildPlans(ds, part, 4, scgnn.SemanticOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	// ...and under the Jaccard baseline for contrast (Fig. 6).
	jacPlans, err := scgnn.BuildPlans(ds, part, 4, scgnn.SemanticOptions{Seed: 1, Jaccard: true})
	if err != nil {
		log.Fatal(err)
	}

	report := func(label string, plans []*scgnn.Plan) (edges, vectors int) {
		for _, p := range plans {
			edges += p.Grouping.NumEdges
			vectors += p.VectorsPerRound()
		}
		fmt.Printf("%-9s grouping: %5d cross edges → %4d messages/round (%.1fx)\n",
			label, edges, vectors, float64(edges)/float64(vectors))
		return
	}
	report("semantic", semPlans)
	report("jaccard", jacPlans)

	// Inspect the busiest pair's grouping in detail.
	var busiest *scgnn.Plan
	for _, p := range semPlans {
		if busiest == nil || p.Grouping.NumEdges > busiest.Grouping.NumEdges {
			busiest = p
		}
	}
	st := busiest.Grouping.Stats()
	fmt.Printf("\nbusiest pair %d→%d:\n", busiest.SrcPart, busiest.DstPart)
	fmt.Printf("  EEP-selected group count: %d\n", busiest.Grouping.K)
	fmt.Printf("  %d groups (%d natural O2M/M2O), %d residual O2O edges\n",
		st.NumGroups, st.NaturalGroups, st.NumO2O)
	fmt.Printf("  mean group size %.1f:1, max %d:1\n", st.MeanGroupSize, st.MaxGroupSize)
	if n := len(busiest.Grouping.InertiaCurve); n > 0 {
		fmt.Printf("  inertia curve over k=2..%d recorded (%d points)\n", n+1, n)
	}
}
