// Command scgnn-train runs one distributed training job and reports
// accuracy, exact communication volume, and modeled epoch time.
//
// Usage:
//
//	scgnn-train -dataset reddit-sim -parts 4 -method semantic
//	scgnn-train -dataset pubmed-sim -parts 8 -method quant -bits 4
//	scgnn-train -dataset yelp-sim -method semantic -drop-o2o -model sage
package main

import (
	"flag"
	"fmt"
	"os"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/partition"
	"scgnn/internal/sched"
)

func main() {
	var (
		dataset = flag.String("dataset", "pubmed-sim", "dataset: reddit-sim, yelp-sim, ogbn-products-sim, pubmed-sim")
		parts   = flag.Int("parts", 4, "number of partitions")
		cut     = flag.String("cut", "node-cut", "partitioner: node-cut, edge-cut, random")
		method  = flag.String("method", "semantic", "exchange: vanilla, sampling, quant, delay, semantic")
		rate    = flag.Float64("rate", 0.1, "sampling rate (method=sampling)")
		bits    = flag.Int("bits", 8, "quantization bits (method=quant)")
		period  = flag.Int("period", 4, "delay period (method=delay)")
		groups  = flag.Int("groups", 0, "semantic group count (0 = auto EEP)")
		dropO2O = flag.Bool("drop-o2o", false, "semantic: prune residual O2O connections (differential optimization)")
		model   = flag.String("model", "gcn", "model: gcn or sage")
		epochs  = flag.Int("epochs", 60, "training epochs")
		hidden  = flag.Int("hidden", 32, "hidden width")
		lr      = flag.Float64("lr", 0.02, "learning rate")
		seed    = flag.Int64("seed", 1, "random seed")
		verbose = flag.Bool("v", false, "print per-epoch progress")

		schedOn      = flag.Bool("sched", false, "variable-rate scheduling: anneal every partition pair from sampling+quant4 up to the chosen method")
		schedPace    = flag.Int("sched-epochs-per-level", 0, "scheduler: epochs per annealing rung (0 = default 2)")
		schedStagger = flag.Int("sched-stagger", 0, "scheduler: spread pair transitions over up to this many extra epochs (0 = default 1, negative = none)")
		schedBits    = flag.Float64("sched-bits-trigger", 0, "scheduler: mean adaptive bit width that accelerates a pair one rung (0 = default 6)")
		schedEF      = flag.Float64("sched-ef-trigger", 0, "scheduler: error-feedback corrections per unit that accelerate a pair one rung (0 = default 64)")
	)
	flag.Parse()

	ds, err := datasets.ByName(*dataset, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		os.Exit(2)
	}
	cutMethod, err := partition.ByName(*cut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		os.Exit(2)
	}
	part := partition.Partition(ds.Graph, *parts, cutMethod, partition.Config{Seed: *seed})
	pstats := partition.Evaluate(ds.Graph, part, *parts)

	var cfg dist.Config
	switch *method {
	case "vanilla":
		cfg = dist.Vanilla()
	case "sampling":
		cfg = dist.Sampling(*rate, *seed)
	case "quant":
		cfg = dist.Quant(*bits)
	case "delay":
		cfg = dist.Delay(*period)
	case "semantic":
		plan := core.PlanConfig{Grouping: core.GroupingConfig{K: *groups, Seed: *seed}}
		if *dropO2O {
			plan.Drop = core.DropO2O
		}
		cfg = dist.Semantic(plan)
	default:
		fmt.Fprintf(os.Stderr, "scgnn-train: unknown method %q\n", *method)
		os.Exit(2)
	}
	if *schedOn {
		// The per-pair stagger offsets derive from the config seed, so pin it:
		// same seed → same schedule on any runtime.
		cfg.Seed = *seed
		cfg.Sched = sched.Policy{Enabled: true, EpochsPerLevel: *schedPace,
			Stagger: *schedStagger, BitsTrigger: *schedBits, EFTrigger: *schedEF}
	}

	fmt.Printf("dataset   %s: %d nodes, %d arcs, avg degree %.1f, %d classes\n",
		ds.Name, ds.NumNodes(), ds.Graph.NumEdges(), ds.Graph.AvgDegree(), ds.NumClasses)
	fmt.Printf("partition %s×%d: %s\n", cutMethod, *parts, pstats)
	fmt.Printf("method    %s\n", cfg.MethodName())

	res := dist.Run(ds, part, *parts, cfg, dist.RunConfig{
		Model: *model, Hidden: *hidden, Epochs: *epochs, LR: *lr, Seed: *seed,
	})

	if *verbose {
		for _, e := range res.Epochs {
			if e.Epoch%10 == 0 || e.Epoch == len(res.Epochs)-1 {
				fmt.Printf("  epoch %3d  loss %.4f  train %.4f  val %.4f  %.3f MB\n",
					e.Epoch, e.Loss, e.TrainAcc, e.ValAcc, float64(e.Bytes)/1e6)
			}
		}
	}

	fmt.Printf("\ntest accuracy   %.4f (best val %.4f)\n", res.TestAcc, res.BestValAcc)
	fmt.Printf("comm volume     %.3f MB/epoch (%.0f msgs/epoch, peak %.3f MB)\n",
		res.MBPerEpoch(), res.MsgsPerEpoch, float64(res.PeakBytesPerEpoch)/1e6)
	fmt.Printf("epoch time      %.2f ms (modeled)\n", res.EpochTimeMs())
	fmt.Printf("wall time       %s for %d epochs\n", res.WallTime.Round(1e6), *epochs)
}
