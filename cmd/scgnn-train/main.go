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

	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/partition"
	"scgnn/internal/sched"
)

// options is scgnn-train's command line.
type options struct {
	dataset, cut, method, model                                          string
	parts, bits, period, groups, epochs, hidden, schedPace, schedStagger int
	rate, lr, schedBits, schedEF                                         float64
	dropO2O, verbose, sched                                              bool
	seed                                                                 int64
}

// parseFlags reads the command line into options. Bad syntax exits 2 and -h
// exits 0, as with package flag's own command line; configs judges the values.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("scgnn-train", flag.ExitOnError)
	fs.StringVar(&o.dataset, "dataset", "pubmed-sim", "dataset: reddit-sim, yelp-sim, ogbn-products-sim, pubmed-sim")
	fs.IntVar(&o.parts, "parts", 4, "number of partitions")
	fs.StringVar(&o.cut, "cut", "node-cut", "partitioner: node-cut, edge-cut, random")
	fs.StringVar(&o.method, "method", "semantic", "exchange: vanilla, sampling, quant, delay, semantic")
	fs.Float64Var(&o.rate, "rate", 0.1, "sampling rate in (0,1) (method=sampling)")
	fs.IntVar(&o.bits, "bits", 8, "quantization bits, 1..16 (method=quant)")
	fs.IntVar(&o.period, "period", 4, "delay period, at least 2 (method=delay)")
	fs.IntVar(&o.groups, "groups", 0, "semantic group count (0 = auto EEP)")
	fs.BoolVar(&o.dropO2O, "drop-o2o", false, "semantic: prune residual O2O connections (differential optimization)")
	fs.StringVar(&o.model, "model", "gcn", "model: gcn or sage")
	fs.IntVar(&o.epochs, "epochs", 60, "training epochs")
	fs.IntVar(&o.hidden, "hidden", 32, "hidden width")
	fs.Float64Var(&o.lr, "lr", 0.02, "learning rate")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.verbose, "v", false, "print per-epoch progress")

	fs.BoolVar(&o.sched, "sched", false, "variable-rate scheduling: anneal every partition pair from sampling+quant4 up to the chosen method")
	fs.IntVar(&o.schedPace, "sched-epochs-per-level", 0, "scheduler: epochs per annealing rung (0 = default 2)")
	fs.IntVar(&o.schedStagger, "sched-stagger", 0, "scheduler: spread pair transitions over up to this many extra epochs (0 = default 1, negative = none)")
	fs.Float64Var(&o.schedBits, "sched-bits-trigger", 0, "scheduler: mean adaptive bit width that accelerates a pair one rung (0 = default 6)")
	fs.Float64Var(&o.schedEF, "sched-ef-trigger", 0, "scheduler: error-feedback corrections per unit that accelerate a pair one rung (0 = default 64)")
	fs.Parse(args)
	return o
}

// configs maps the options onto the run's exchange and training configs. A
// value the run would panic on, or would quietly replace by the vanilla
// exchange or a default, is an error.
func (o options) configs() (dist.Config, dist.RunConfig, error) {
	run := dist.RunConfig{Model: o.model, Hidden: o.hidden, Epochs: o.epochs, LR: o.lr, Seed: o.seed}
	switch {
	case o.parts < 1:
		return dist.Config{}, run, fmt.Errorf("-parts %d: want at least 1", o.parts)
	case o.model != "gcn" && o.model != "sage":
		return dist.Config{}, run, fmt.Errorf("unknown model %q (want gcn or sage)", o.model)
	case o.epochs < 1:
		return dist.Config{}, run, fmt.Errorf("-epochs %d: want at least 1", o.epochs)
	case o.hidden < 1:
		return dist.Config{}, run, fmt.Errorf("-hidden %d: want at least 1", o.hidden)
	case !(o.lr > 0):
		return dist.Config{}, run, fmt.Errorf("-lr %v: want a positive rate", o.lr)
	}

	cfg, err := dist.MethodFlags{Method: o.method, Rate: o.rate, Bits: o.bits, Period: o.period,
		Groups: o.groups, DropO2O: o.dropO2O, Seed: o.seed,
		Sched: sched.Policy{Enabled: o.sched, EpochsPerLevel: o.schedPace, Stagger: o.schedStagger,
			BitsTrigger: o.schedBits, EFTrigger: o.schedEF}}.Config()
	return cfg, run, err
}

func main() {
	o := parseFlags(os.Args[1:])
	cfg, run, err := o.configs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		os.Exit(2)
	}

	ds, err := datasets.ByName(o.dataset, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		os.Exit(2)
	}
	cutMethod, err := partition.ByName(o.cut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		os.Exit(2)
	}
	part := partition.Partition(ds.Graph, o.parts, cutMethod, partition.Config{Seed: o.seed})
	pstats := partition.Evaluate(ds.Graph, part, o.parts)

	fmt.Printf("dataset   %s: %d nodes, %d arcs, avg degree %.1f, %d classes\n",
		ds.Name, ds.NumNodes(), ds.Graph.NumEdges(), ds.Graph.AvgDegree(), ds.NumClasses)
	fmt.Printf("partition %s×%d: %s\n", cutMethod, o.parts, pstats)
	fmt.Printf("method    %s\n", cfg.MethodName())

	res := dist.Run(ds, part, o.parts, cfg, run)

	if o.verbose {
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
	fmt.Printf("wall time       %s for %d epochs\n", res.WallTime.Round(1e6), o.epochs)
}
