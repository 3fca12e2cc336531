// Models: train the two GNN architectures the paper trains — GCN and
// GraphSAGE — on the same dataset, first on one partition (no halo, so the
// exact aggregate) and then on four, re-running GCN vanilla and with SC-GNN
// compression and reporting the wire bytes and messages its workers
// exchanged per epoch.
//
//	go run ./examples/models
package main

import (
	"fmt"
	"log"

	"scgnn"
)

func main() {
	ds, err := scgnn.LoadDataset("pubmed-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d nodes, %d classes\n\n", ds.Name, ds.NumNodes(), ds.NumClasses)

	// One partition: every neighbour is local, the aggregate is exact.
	whole := scgnn.PartitionGraph(ds, 1, scgnn.NodeCut, 1)
	fmt.Println("one partition (exact aggregate):")
	for _, model := range []string{"gcn", "sage"} {
		res, err := scgnn.Train(ds, whole, 1, scgnn.Vanilla(),
			scgnn.TrainOptions{Model: model, Epochs: 80, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-5s test acc %.4f (best val %.4f)\n", model, res.TestAcc, res.BestValAcc)
	}

	// Four partitions: one worker each, real wire frames.
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
	fmt.Println("\ngoroutine workers × 4, real message passing:")
	for _, m := range []scgnn.Method{
		scgnn.Vanilla(),
		scgnn.SemanticWith(scgnn.SemanticOptions{Seed: 1}),
	} {
		res, err := scgnn.Train(ds, part, 4, m, scgnn.TrainOptions{Epochs: 60, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s test acc %.4f, %8.3f MB/epoch on the wire (%.0f messages/epoch)\n",
			m.MethodName(), res.TestAcc, res.MBPerEpoch(), res.MsgsPerEpoch)
	}
}
