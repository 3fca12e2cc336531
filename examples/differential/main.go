// Differential: reproduce the differential optimization study of Fig. 11 on
// one dataset — train SC-GNN with each connection type removed in turn and
// report the traffic/accuracy trade-off. The paper's finding: "without-O2O"
// is the only variant that slashes residual traffic while costing almost no
// accuracy.
//
//	go run ./examples/differential
package main

import (
	"fmt"
	"log"

	"scgnn"
	"scgnn/internal/core"
	"scgnn/internal/dist"
)

func main() {
	ds, err := scgnn.LoadDataset("pubmed-sim", 1)
	if err != nil {
		log.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
	opt := scgnn.TrainOptions{Epochs: 60, Seed: 1}

	variants := []struct {
		label string
		drop  core.DropMask
	}{
		{"full (no drop)", core.DropNone},
		{"without-O2O", core.DropO2O},
		{"without-O2M", core.DropMask{O2M: true}},
		{"without-M2O", core.DropMask{M2O: true}},
		{"without-M2M", core.DropMask{M2M: true}},
	}

	fmt.Printf("%s × 4 partitions, semantic compression, 60 epochs\n\n", ds.Name)
	fmt.Printf("%-15s  %9s  %10s  %12s\n", "variant", "test acc", "MB/epoch", "traffic vs full")
	var fullBytes float64
	for _, v := range variants {
		cfg := dist.Semantic(core.PlanConfig{
			Grouping: core.GroupingConfig{Seed: 1},
			Drop:     v.drop,
		})
		res, err := scgnn.Train(ds, part, 4, cfg, opt)
		if err != nil {
			log.Fatal(err)
		}
		if fullBytes == 0 {
			fullBytes = res.BytesPerEpoch
		}
		fmt.Printf("%-15s  %9.4f  %10.4f  %11.1f%%\n",
			v.label, res.TestAcc, res.MBPerEpoch(), 100*res.BytesPerEpoch/fullBytes)
	}
}
