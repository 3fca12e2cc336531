// Command scgnn-plan builds the semantic compression plans for a
// partitioned dataset offline (the step between graph partition and node
// update in the paper's Fig. 8 framework) and exports them as JSON for
// inspection or external tooling.
//
// Usage:
//
//	scgnn-plan -dataset reddit-sim -parts 4 -out plans.json
//	scgnn-plan -dataset pubmed-sim -parts 8 -groups 10 -drop-o2o -summary
package main

import (
	"flag"
	"fmt"
	"os"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/partition"
	"scgnn/internal/persist"
)

func main() {
	var (
		dataset = flag.String("dataset", "reddit-sim", "dataset name")
		parts   = flag.Int("parts", 4, "number of partitions")
		cut     = flag.String("cut", "node-cut", "partitioner")
		groups  = flag.Int("groups", 0, "group count (0 = auto EEP)")
		jaccard = flag.Bool("jaccard", false, "use the Jaccard similarity baseline")
		dropO2O = flag.Bool("drop-o2o", false, "apply the differential optimization")
		out     = flag.String("out", "", "write plans as JSON to this file ('-' = stdout)")
		summary = flag.Bool("summary", true, "print a per-pair summary")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	ds, err := datasets.ByName(*dataset, *seed)
	if err != nil {
		fatal(err)
	}
	cutMethod, err := partition.ByName(*cut)
	if err != nil {
		fatal(err)
	}
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
		fatal(err)
	}

	if *summary {
		var edges, vectors, dropped int
		for _, p := range plans {
			fmt.Println(" ", p)
			edges += p.Grouping.NumEdges
			vectors += p.VectorsPerRound()
			dropped += p.DroppedEdges
		}
		if vectors > 0 {
			fmt.Printf("total: %d cross edges → %d vectors/round (%.1fx), %d edges pruned\n",
				edges, vectors, float64(edges)/float64(vectors), dropped)
		}
	}

	if *out != "" {
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			w = f
		}
		if err := persist.ExportPlansJSON(w, plans); err != nil {
			fatal(err)
		}
		if *out != "-" {
			if err := w.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %d plans to %s\n", len(plans), *out)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scgnn-plan:", err)
	os.Exit(1)
}
