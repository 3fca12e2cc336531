// Quickstart: train a GCN on a partitioned graph with SC-GNN semantic
// compression and compare its traffic and accuracy against the vanilla
// exchange.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"scgnn"
)

func main() {
	// 1. Load the dense benchmark dataset (a synthetic Reddit analogue).
	ds, err := scgnn.LoadDataset("reddit-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d arcs, avg degree %.1f\n",
		ds.Name, ds.NumNodes(), ds.Graph.NumEdges(), ds.Graph.AvgDegree())

	// 2. Split it across 4 workers with the node-cut partitioner.
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
	fmt.Printf("partition: %s\n\n", scgnn.EvaluatePartition(ds, part, 4))

	// 3. Train with the vanilla exchange, then with semantic compression.
	opt := scgnn.TrainOptions{Epochs: 60, Seed: 1}
	vanilla, err := scgnn.Train(ds, part, 4, scgnn.Vanilla(), opt)
	if err != nil {
		log.Fatal(err)
	}
	semantic, err := scgnn.Train(ds, part, 4, scgnn.Semantic(1), opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("vanilla : acc %.4f, %8.3f MB/epoch, %7.2f ms/epoch\n",
		vanilla.TestAcc, vanilla.MBPerEpoch(), vanilla.EpochTimeMs())
	fmt.Printf("semantic: acc %.4f, %8.3f MB/epoch, %7.2f ms/epoch\n",
		semantic.TestAcc, semantic.MBPerEpoch(), semantic.EpochTimeMs())
	fmt.Printf("\ncompression: %.0fx less traffic, epoch time reduced to %.1f%%\n",
		vanilla.BytesPerEpoch/semantic.BytesPerEpoch,
		100*semantic.EpochTimeModeled/vanilla.EpochTimeModeled)
}
