// Models: train the three GNN architectures of the stack — GCN, GraphSAGE,
// and GAT — on the same dataset, single-machine, and then re-run GCN on the
// in-process distributed runtime, vanilla and with SC-GNN compression,
// reporting the wire bytes and messages its workers exchanged per epoch.
//
//	go run ./examples/models
package main

import (
	"fmt"
	"log"
	"math/rand"

	"scgnn"
	"scgnn/internal/gnn"
)

func main() {
	ds, err := scgnn.LoadDataset("pubmed-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d classes\n\n", ds.Name, ds.NumNodes(), ds.NumClasses)

	// Single-machine: exact aggregation, three architectures.
	agg := gnn.NewLocalAggregator(ds.Graph)
	dims := []int{ds.FeatureDim(), 32, ds.NumClasses}
	arch := []struct {
		name  string
		model gnn.Model
	}{
		{"GCN", gnn.NewGCN(agg, dims, rand.New(rand.NewSource(1)))},
		{"GraphSAGE", gnn.NewSAGE(agg, dims, rand.New(rand.NewSource(2)))},
		{"GAT", gnn.NewGAT(ds.Graph, []int{ds.FeatureDim(), 16, ds.NumClasses}, rand.New(rand.NewSource(3)))},
	}
	fmt.Println("single-machine (exact aggregate):")
	for _, a := range arch {
		res := gnn.Train(a.model, ds.Features, ds.Labels, ds.TrainMask, ds.ValMask, ds.TestMask,
			gnn.TrainConfig{Epochs: 80, LR: 0.02})
		fmt.Printf("  %-10s test acc %.4f (best val %.4f)\n", a.name, res.TestAcc, res.BestValAcc)
	}

	// Distributed runtime: one worker per partition, real wire frames.
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
	fmt.Println("\ngoroutine workers × 4, real message passing:")
	for _, m := range []scgnn.Method{
		scgnn.Vanilla(),
		scgnn.SemanticWith(scgnn.SemanticOptions{Seed: 1}),
	} {
		name := m.MethodName()
		res, err := scgnn.Train(ds, part, 4, m, scgnn.TrainOptions{Epochs: 60, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s test acc %.4f, %8.3f MB/epoch on the wire (%.0f messages/epoch)\n",
			name, res.TestAcc, res.MBPerEpoch(), res.MsgsPerEpoch)
	}
}
