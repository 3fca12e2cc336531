// Command scgnn-coord drives distributed training over a fleet of
// scgnn-node processes: it connects to each node's socket, ships the graph
// shard and compression config over the control channel, then runs the
// full-batch training loop with the fleet as the aggregation backend,
// checkpointing at every epoch boundary.
//
// Usage:
//
//	scgnn-node -listen /tmp/scgnn/n0.sock &
//	scgnn-node -listen /tmp/scgnn/n1.sock &
//	scgnn-coord -nodes /tmp/scgnn/n0.sock,/tmp/scgnn/n1.sock -method quant -bits 8
//
// With -node-bin the coordinator spawns the node processes itself:
//
//	scgnn-coord -node-bin ./scgnn-node -nodes /tmp/scgnn/n0.sock,/tmp/scgnn/n1.sock
//
// If -checkpoint names an existing file the run resumes from it instead of
// starting at epoch 0 — after a crash, restart the dead node and rerun the
// same coordinator command to pick the job back up loss-for-loss.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"

	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/net"
	"scgnn/internal/partition"
	"scgnn/internal/sched"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scgnn-coord:", err)
	os.Exit(1)
}

// options is scgnn-coord's command line.
type options struct {
	nodes, nodeBin, dataset, cut, method, ckPath                  string
	bits, period, groups, epochs, hidden, schedPace, schedStagger int
	rate, lr, schedBits, schedEF                                  float64
	verbose, sched                                                bool
	seed                                                          int64
}

// parseFlags reads the command line into options. Bad syntax exits 2 and -h
// exits 0, as with package flag's own command line; configs judges the values.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("scgnn-coord", flag.ExitOnError)
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated node addresses (one per partition)")
	fs.StringVar(&o.nodeBin, "node-bin", "", "spawn node processes with this binary instead of expecting them running")
	fs.StringVar(&o.dataset, "dataset", "pubmed-sim", "dataset: reddit-sim, yelp-sim, ogbn-products-sim, pubmed-sim")
	fs.StringVar(&o.cut, "cut", "node-cut", "partitioner: node-cut, edge-cut, random")
	fs.StringVar(&o.method, "method", "semantic", "exchange: vanilla, sampling, quant, delay, semantic")
	fs.Float64Var(&o.rate, "rate", 0.1, "sampling rate in (0,1) (method=sampling)")
	fs.IntVar(&o.bits, "bits", 8, "quantization bits, 1..16 (method=quant)")
	fs.IntVar(&o.period, "period", 4, "delay period, at least 2 (method=delay)")
	fs.IntVar(&o.groups, "groups", 0, "semantic group count (0 = auto EEP)")
	fs.IntVar(&o.epochs, "epochs", 60, "training epochs")
	fs.IntVar(&o.hidden, "hidden", 32, "hidden width")
	fs.Float64Var(&o.lr, "lr", 0.02, "learning rate")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.ckPath, "checkpoint", "", "checkpoint file, written at every epoch boundary (resumes if it exists)")
	fs.BoolVar(&o.verbose, "v", false, "print per-epoch progress")

	fs.BoolVar(&o.sched, "sched", false, "variable-rate scheduling: the coordinator gathers per-pair signals each epoch and anneals every pair from sampling+quant4 up to the chosen method")
	fs.IntVar(&o.schedPace, "sched-epochs-per-level", 0, "scheduler: epochs per annealing rung (0 = default 2)")
	fs.IntVar(&o.schedStagger, "sched-stagger", 0, "scheduler: spread pair transitions over up to this many extra epochs (0 = default 1, negative = none)")
	fs.Float64Var(&o.schedBits, "sched-bits-trigger", 0, "scheduler: mean adaptive bit width that accelerates a pair one rung (0 = default 6)")
	fs.Float64Var(&o.schedEF, "sched-ef-trigger", 0, "scheduler: error-feedback corrections per unit that accelerate a pair one rung (0 = default 64)")
	fs.Parse(args)
	return o
}

// configs maps the options onto the fleet's addresses, exchange and training
// configs under scgnn-train's rules. A value the run would panic on, or would
// quietly replace by the vanilla exchange or a default, is an error.
func (o options) configs() ([]string, dist.Config, gnn.TrainConfig, error) {
	train := gnn.TrainConfig{Epochs: o.epochs, LR: o.lr}
	switch {
	case o.nodes == "":
		return nil, dist.Config{}, train, errors.New("-nodes is required (comma-separated addresses)")
	case o.epochs < 1:
		return nil, dist.Config{}, train, fmt.Errorf("-epochs %d: want at least 1", o.epochs)
	case o.hidden < 1:
		return nil, dist.Config{}, train, fmt.Errorf("-hidden %d: want at least 1", o.hidden)
	case !(o.lr > 0):
		return nil, dist.Config{}, train, fmt.Errorf("-lr %v: want a positive rate", o.lr)
	}
	cfg, err := dist.MethodFlags{Method: o.method, Rate: o.rate, Bits: o.bits, Period: o.period,
		Groups: o.groups, Seed: o.seed,
		Sched: sched.Policy{Enabled: o.sched, EpochsPerLevel: o.schedPace, Stagger: o.schedStagger,
			BitsTrigger: o.schedBits, EFTrigger: o.schedEF}}.Config()
	return strings.Split(o.nodes, ","), cfg, train, err
}

func main() {
	o := parseFlags(os.Args[1:])
	addrs, cfg, tcfg, err := o.configs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-coord:", err)
		os.Exit(2)
	}
	nparts := len(addrs)

	if o.nodeBin != "" {
		for _, addr := range addrs {
			cmd := exec.Command(o.nodeBin, "-listen", addr)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				fatal(fmt.Errorf("spawn %s: %w", addr, err))
			}
			go cmd.Wait()
		}
	}

	ds, err := datasets.ByName(o.dataset, o.seed)
	if err != nil {
		fatal(err)
	}
	cutMethod, err := partition.ByName(o.cut)
	if err != nil {
		fatal(err)
	}
	part := partition.Partition(ds.Graph, nparts, cutMethod, partition.Config{Seed: o.seed})

	coord := net.NewCoordinator(addrs, net.CoordOptions{})
	if err := coord.Connect(); err != nil {
		fatal(err)
	}
	defer coord.Close()
	if err := coord.Setup(ds.Graph, part, cfg); err != nil {
		fatal(err)
	}
	fmt.Printf("fleet     %d nodes over %s\n", nparts, strings.Join(addrs, ", "))
	fmt.Printf("dataset   %s: %d nodes, %d arcs, %d classes\n",
		ds.Name, ds.NumNodes(), ds.Graph.NumEdges(), ds.NumClasses)

	model := gnn.NewGCN(coord, []int{ds.FeatureDim(), o.hidden, ds.NumClasses},
		rand.New(rand.NewSource(o.seed)))
	trainer := gnn.NewTrainer(model, ds.Features, ds.Labels,
		ds.TrainMask, ds.ValMask, ds.TestMask, tcfg)

	if o.ckPath != "" {
		if ck, err := net.LoadTrainingCheckpoint(o.ckPath); err == nil {
			if err := net.RestoreParams(ck.Params, model.Params()); err != nil {
				fatal(err)
			}
			if err := trainer.Restore(ck.Trainer); err != nil {
				fatal(err)
			}
			if err := coord.RestoreStates(ck.Nodes); err != nil {
				fatal(err)
			}
			fmt.Printf("resumed   epoch %d from %s\n", ck.Epoch, o.ckPath)
		} else if !errors.Is(err, os.ErrNotExist) {
			fatal(fmt.Errorf("checkpoint %s: %w", o.ckPath, err))
		}
	}

	for !trainer.Done() {
		if o.ckPath != "" {
			blobs, err := coord.CollectStates()
			if err != nil {
				fatal(err)
			}
			ck := &net.TrainingCheckpoint{
				Epoch: trainer.NextEpoch(), Part: coord.Part(),
				Params: net.CaptureParams(model.Params()), Trainer: trainer.State(), Nodes: blobs,
			}
			if err := ck.Save(o.ckPath); err != nil {
				fatal(err)
			}
		}
		st, err := trainer.RunEpoch()
		if err != nil {
			if o.ckPath != "" {
				fmt.Fprintf(os.Stderr, "scgnn-coord: epoch %d failed: %v\n", trainer.NextEpoch(), err)
				fmt.Fprintf(os.Stderr, "scgnn-coord: restart the dead node and rerun with -checkpoint %s to resume\n", o.ckPath)
				os.Exit(1)
			}
			fatal(err)
		}
		if o.verbose {
			fmt.Printf("epoch %3d  loss %.4f  train %.4f  val %.4f\n",
				st.Epoch, st.Loss, st.TrainAcc, st.ValAcc)
		}
	}
	res, err := trainer.Finish()
	if err != nil {
		fatal(err)
	}
	snap := coord.CaptureEpoch()
	fmt.Printf("result    test acc %.4f (best val %.4f) after %d epochs\n",
		res.TestAcc, res.BestValAcc, len(res.Epochs))
	fmt.Printf("traffic   last epoch: %s\n", snap)
	coord.Shutdown()
}
