// Compare: run all five exchange methods of the paper side by side on one
// dataset — a miniature of Table 1. The three baselines run at their
// conventional operating points (sampling rate 0.1, 8-bit quantization,
// delay period 4).
//
//	go run ./examples/compare            # pubmed-sim, 4 partitions
//	go run ./examples/compare yelp-sim 8 # custom dataset / partitions
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"

	"scgnn"
)

func main() {
	name := "pubmed-sim"
	parts := 4
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	if len(os.Args) > 2 {
		p, err := strconv.Atoi(os.Args[2])
		if err != nil {
			log.Fatalf("bad partition count %q", os.Args[2])
		}
		parts = p
	}

	ds, err := scgnn.LoadDataset(name, 1)
	if err != nil {
		log.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, parts, scgnn.NodeCut, 1)

	methods := []struct {
		label string
		m     scgnn.Method
	}{
		{"vanilla", scgnn.Vanilla()},
		{"sampling(0.1)", scgnn.Sampling(0.1, 1)},
		{"quant(8-bit)", scgnn.Quant(8)},
		{"delay(4)", scgnn.Delay(4)},
		{"semantic", scgnn.Semantic(1)},
		{"semantic-O2O", scgnn.SemanticWith(scgnn.SemanticOptions{DropO2O: true, Seed: 1})},
	}

	fmt.Printf("%s × %d partitions, GCN, 60 epochs\n\n", ds.Name, parts)
	fmt.Printf("%-14s  %9s  %10s  %9s\n", "method", "test acc", "MB/epoch", "ms/epoch")
	var vanillaBytes float64
	for _, mm := range methods {
		res, err := scgnn.Train(ds, part, parts, mm.m, scgnn.TrainOptions{Epochs: 60, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		if mm.label == "vanilla" {
			vanillaBytes = res.BytesPerEpoch
		}
		fmt.Printf("%-14s  %9.4f  %10.4f  %9.2f   (%.2f%% of vanilla traffic)\n",
			mm.label, res.TestAcc, res.MBPerEpoch(), res.EpochTimeMs(),
			100*res.BytesPerEpoch/vanillaBytes)
	}
}
