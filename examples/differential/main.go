// Differential: the differential optimization of Fig. 11 on one dataset —
// the census of cross-partition connection types, then SC-GNN trained with
// all of them and with the residual one-to-one (O2O) connections pruned,
// which slashes the residual traffic at almost no accuracy cost. For each
// type removed in turn, on every dataset: go run ./cmd/scgnn-bench -exp fig11
//
//	go run ./examples/differential
package main

import (
	"cmp"
	"fmt"
	"log"
	"slices"

	"scgnn"
)

func main() {
	ds, err := scgnn.LoadDataset("pubmed-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)

	census := scgnn.CensusOf(ds, part, 4)
	fmt.Printf("%s × 4 partitions: %d cross-partition edges\n", ds.Name, census.TotalEdges())
	for _, ct := range sortedKeys(census.Edges) {
		fmt.Printf("  %-4s %6d connections  %6d edges (%5.1f%%)\n",
			ct, census.Connections[ct], census.Edges[ct], 100*census.EdgeShare(ct))
	}

	fmt.Printf("\nsemantic compression, 60 epochs\n")
	fmt.Printf("%-12s  %9s  %10s  %15s\n", "variant", "test acc", "MB/epoch", "traffic vs full")
	opt := scgnn.TrainOptions{Epochs: 60, Seed: 1}
	var fullBytes float64
	for _, v := range []struct {
		label string
		sem   scgnn.SemanticOptions
	}{
		{"full", scgnn.SemanticOptions{Seed: 1}},
		{"without-O2O", scgnn.SemanticOptions{Seed: 1, DropO2O: true}},
	} {
		res, err := scgnn.Train(ds, part, 4, scgnn.SemanticWith(v.sem), opt)
		if err != nil {
			log.Fatal(err)
		}
		if fullBytes == 0 {
			fullBytes = res.BytesPerEpoch
		}
		fmt.Printf("%-12s  %9.4f  %10.4f  %14.1f%%\n",
			v.label, res.TestAcc, res.MBPerEpoch(), 100*res.BytesPerEpoch/fullBytes)
	}
}

// sortedKeys lists a census map's connection types in the paper's order
// (O2O, O2M, M2O, M2M).
func sortedKeys[K cmp.Ordered](m map[K]int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
