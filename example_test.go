package scgnn_test

import (
	"fmt"
	"log"

	"scgnn"
)

// ExamplePartitionGraph shows the offline pipeline: generate a dataset,
// partition it, and inspect the cross-partition structure SC-GNN exploits.
func ExamplePartitionGraph() {
	ds := scgnn.GenerateDataset(scgnn.DatasetSpec{
		Name: "demo", Nodes: 200, AvgDegree: 8, Classes: 4, FeatureDim: 8, Seed: 7,
	})
	part := scgnn.PartitionGraph(ds, 2, scgnn.NodeCut, 7)
	census := scgnn.CensusOf(ds, part, 2)
	fmt.Println("M2M dominates:", census.EdgeShare(3) > 0.5)
	// Output:
	// M2M dominates: true
}

// ExampleBuildPlans builds the static semantic compression plans and shows
// that every plan compresses (one message per group instead of one per
// edge).
func ExampleBuildPlans() {
	ds := scgnn.GenerateDataset(scgnn.DatasetSpec{
		Name: "demo", Nodes: 200, AvgDegree: 8, Classes: 4, FeatureDim: 8, Seed: 7,
	})
	part := scgnn.PartitionGraph(ds, 2, scgnn.NodeCut, 7)
	plans, err := scgnn.BuildPlans(ds, part, 2, scgnn.SemanticOptions{Seed: 7})
	if err != nil {
		panic(err)
	}
	allCompress := true
	for _, p := range plans {
		if p.CompressionRatio() < 1 {
			allCompress = false
		}
	}
	fmt.Println("plans:", len(plans) > 0, "all compress:", allCompress)
	// Output:
	// plans: true all compress: true
}

// ExampleTrain runs the headline comparison: semantic compression moves far
// fewer bytes than the vanilla exchange while the model still learns.
func ExampleTrain() {
	ds := scgnn.GenerateDataset(scgnn.DatasetSpec{
		Name: "demo", Nodes: 200, AvgDegree: 8, Classes: 4, FeatureDim: 8,
		FeatureNoise: 0.5, Seed: 7,
	})
	part := scgnn.PartitionGraph(ds, 2, scgnn.NodeCut, 7)
	opt := scgnn.TrainOptions{Epochs: 30, Seed: 7}
	vanilla, err := scgnn.Train(ds, part, 2, scgnn.Vanilla(), opt)
	if err != nil {
		log.Fatal(err)
	}
	semantic, err := scgnn.Train(ds, part, 2, scgnn.Semantic(7), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compressed:", semantic.BytesPerEpoch < vanilla.BytesPerEpoch/2)
	fmt.Println("learned:", semantic.TestAcc > 0.7)
	// Output:
	// compressed: true
	// learned: true
}
