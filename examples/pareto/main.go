// Pareto: sweep each baseline's knob on a chosen dataset and print the
// volume/accuracy frontier with the SC-GNN point — a configurable version
// of the paper's Fig. 2(b).
//
//	go run ./examples/pareto                 # reddit-sim
//	go run ./examples/pareto yelp-sim
package main

import (
	"fmt"
	"log"
	"os"

	"scgnn"
)

func main() {
	name := "reddit-sim"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	ds, err := scgnn.LoadDataset(name, 1)
	if err != nil {
		log.Fatal(err)
	}
	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
	opt := scgnn.TrainOptions{Epochs: 40, Seed: 1}

	fmt.Printf("%s × 4 partitions — volume/accuracy frontier\n\n", ds.Name)
	fmt.Printf("%-22s %12s %10s\n", "point", "norm volume", "test acc")

	train := func(m scgnn.Method) *scgnn.Result {
		res, err := scgnn.Train(ds, part, 4, m, opt)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	van := train(scgnn.Vanilla())
	show := func(label string, m scgnn.Method) {
		res := train(m)
		fmt.Printf("%-22s %12.5f %10.4f\n", label, res.BytesPerEpoch/van.BytesPerEpoch, res.TestAcc)
	}
	show("vanilla", scgnn.Vanilla())
	for _, rate := range []float64{0.1, 0.25, 0.5} {
		show(fmt.Sprintf("sampling rate=%.2f", rate), scgnn.Sampling(rate, 1))
	}
	for _, bits := range []int{2, 4, 8} {
		show(fmt.Sprintf("quant bits=%d", bits), scgnn.Quant(bits))
	}
	for _, period := range []int{2, 4, 8} {
		show(fmt.Sprintf("delay period=%d", period), scgnn.Delay(period))
	}
	show("semantic (EEP)", scgnn.Semantic(1))
	show("semantic w/o O2O", scgnn.SemanticWith(scgnn.SemanticOptions{DropO2O: true, Seed: 1}))
}
