// Command scgnn-train runs one distributed training job and reports
// accuracy, exact communication volume, and modeled epoch time.
//
// Usage:
//
//	scgnn-train -dataset reddit-sim -parts 4 -method semantic
//	scgnn-train -dataset pubmed-sim -parts 8 -method quant -bits 4
//	scgnn-train -dataset yelp-sim -method semantic -drop-o2o -model sage
//
// With -nodes the partitions run on a fleet of scgnn-node processes, one per
// address, and this command coordinates them — the same run, the same
// report:
//
//	scgnn-node -listen /tmp/scgnn/n0.sock &
//	scgnn-node -listen /tmp/scgnn/n1.sock &
//	scgnn-train -nodes /tmp/scgnn/n0.sock,/tmp/scgnn/n1.sock -method quant -bits 8
//
// With -node-bin it spawns the node processes itself:
//
//	scgnn-train -node-bin ./scgnn-node -nodes /tmp/scgnn/n0.sock,/tmp/scgnn/n1.sock
//
// A fleet run with -checkpoint saves the run at every epoch boundary and, if
// the file exists, resumes from it instead of starting at epoch 0 — after a
// crash, restart the dead node and rerun the same command to pick the job
// back up loss-for-loss.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"

	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/graph"
	"scgnn/internal/net"
	"scgnn/internal/partition"
	"scgnn/internal/sched"
)

// options is scgnn-train's command line.
type options struct {
	dataset, cut, method, model, nodes, nodeBin, ckPath                  string
	parts, bits, period, groups, epochs, hidden, schedPace, schedStagger int
	rate, lr                                                             float64
	dropO2O, verbose, sched, partsSet                                    bool
	seed                                                                 int64
}

// parseFlags reads the command line into options. Bad syntax exits 2 and -h
// exits 0, as with package flag's own command line; configs judges the values.
func parseFlags(args []string) options {
	var o options
	fs := flag.NewFlagSet("scgnn-train", flag.ExitOnError)
	fs.StringVar(&o.dataset, "dataset", "pubmed-sim", "dataset: reddit-sim, yelp-sim, ogbn-products-sim, pubmed-sim")
	fs.IntVar(&o.parts, "parts", 4, "number of partitions (with -nodes: the node count)")
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

	fs.StringVar(&o.nodes, "nodes", "", "train on a fleet of scgnn-node processes at these comma-separated addresses, one per partition")
	fs.StringVar(&o.nodeBin, "node-bin", "", "spawn the -nodes processes with this scgnn-node binary instead of expecting them running")
	fs.StringVar(&o.ckPath, "checkpoint", "", "fleet checkpoint file, written at every epoch boundary (resumes if it exists)")

	fs.BoolVar(&o.sched, "sched", false, "variable-rate scheduling: anneal every partition pair from sampling+quant4 up to the chosen method")
	fs.IntVar(&o.schedPace, "sched-epochs-per-level", 0, "scheduler: epochs per annealing rung (0 = default 2)")
	fs.IntVar(&o.schedStagger, "sched-stagger", 0, "scheduler: spread pair transitions over up to this many extra epochs (0 = default 1, negative = none)")
	fs.Parse(args)
	fs.Visit(func(f *flag.Flag) { o.partsSet = o.partsSet || f.Name == "parts" })
	return o
}

// job is a validated command line: the run's exchange and training configs,
// its partition count, and the fleet it trains on (nil: in process).
type job struct {
	nodes []string
	parts int
	cfg   dist.Config
	run   dist.RunConfig
}

// configs maps the options onto the run's job. A value the run would panic
// on, or would quietly replace by the vanilla exchange or a default, is an
// error.
func (o options) configs() (job, error) {
	j := job{parts: o.parts, run: dist.RunConfig{Model: o.model, Hidden: o.hidden, Epochs: o.epochs,
		LR: o.lr, Seed: o.seed, Checkpoint: o.ckPath}}
	switch {
	case o.parts < 1:
		return j, fmt.Errorf("-parts %d: want at least 1", o.parts)
	case o.model != "gcn" && o.model != "sage":
		return j, fmt.Errorf("unknown model %q (want gcn or sage)", o.model)
	case o.epochs < 1:
		return j, fmt.Errorf("-epochs %d: want at least 1", o.epochs)
	case o.hidden < 1:
		return j, fmt.Errorf("-hidden %d: want at least 1", o.hidden)
	case !(o.lr > 0):
		return j, fmt.Errorf("-lr %v: want a positive rate", o.lr)
	case o.nodes == "" && o.ckPath != "":
		return j, errors.New("-checkpoint needs -nodes: only a fleet run keeps a checkpoint")
	case o.nodes == "" && o.nodeBin != "":
		return j, errors.New("-node-bin needs -nodes")
	}
	if o.nodes != "" {
		j.nodes = strings.Split(o.nodes, ",")
		switch {
		case slices.Contains(j.nodes, ""):
			return j, fmt.Errorf("-nodes %q: empty address", o.nodes)
		case o.partsSet && o.parts != len(j.nodes):
			return j, fmt.Errorf("-parts %d with %d nodes: a fleet runs one partition per node", o.parts, len(j.nodes))
		}
		j.parts = len(j.nodes)
	}

	var err error
	j.cfg, err = dist.MethodFlags{Method: o.method, Rate: o.rate, Bits: o.bits, Period: o.period,
		Groups: o.groups, DropO2O: o.dropO2O, Seed: o.seed,
		Sched: sched.Policy{Enabled: o.sched, EpochsPerLevel: o.schedPace, Stagger: o.schedStagger}}.Config()
	return j, err
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the command; it returns the exit status: 2 for a bad command line,
// 1 for a failed run.
func run(args []string) int {
	o := parseFlags(args)
	j, err := o.configs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		return 2
	}

	ds, err := datasets.ByName(o.dataset, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		return 2
	}
	cutMethod, err := partition.ByName(o.cut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		return 2
	}
	part := partition.Partition(ds.Graph, j.parts, cutMethod, partition.Config{Seed: o.seed})
	pstats := partition.Evaluate(ds.Graph, part, j.parts)

	fmt.Printf("dataset   %s: %d nodes, %d arcs, avg degree %.1f, %d classes\n",
		ds.Name, ds.NumNodes(), ds.Graph.NumEdges(), ds.Graph.AvgDegree(), ds.NumClasses)
	fmt.Printf("partition %s×%d: %s\n", cutMethod, j.parts, pstats)
	fmt.Printf("method    %s\n", j.cfg.MethodName())

	var res *dist.Result
	if j.nodes == nil {
		res, err = dist.Run(ds, part, j.parts, j.cfg, j.run)
	} else {
		var f *fleet
		if f, err = connect(j.nodes, o.nodeBin, ds.Graph, part, j.cfg); err != nil {
			fmt.Fprintln(os.Stderr, "scgnn-train:", err)
			return 1
		}
		fmt.Printf("fleet     %d nodes over %s\n", len(j.nodes), strings.Join(j.nodes, ", "))
		res, err = dist.Train(f.coord, ds, j.cfg, j.parts, j.run)
		f.close(err == nil)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scgnn-train:", err)
		if hint := failureHint(err, j.run.Checkpoint); hint != "" {
			fmt.Fprintln(os.Stderr, "scgnn-train:", hint)
		}
		return 1
	}

	if res.StartEpoch > 0 {
		fmt.Printf("resumed   epoch %d from %s\n", res.StartEpoch, j.run.Checkpoint)
	}
	if o.verbose {
		for i, e := range res.Epochs {
			if e.Epoch%10 == 0 || i == len(res.Epochs)-1 {
				fmt.Printf("  epoch %3d  loss %.4f  train %.4f  val %.4f  %.3f MB\n",
					e.Epoch, e.Loss, e.TrainAcc, e.ValAcc, float64(e.Bytes)/1e6)
			}
		}
	}

	fmt.Printf("\ntest accuracy   %.4f (best val %.4f)\n", res.TestAcc, res.BestValAcc)
	fmt.Printf("comm volume     %.3f MB/epoch (%.0f msgs/epoch, peak %.3f MB)\n",
		res.MBPerEpoch(), res.MsgsPerEpoch, float64(res.PeakBytesPerEpoch)/1e6)
	fmt.Printf("epoch time      %.2f ms (modeled)\n", res.EpochTimeMs())
	fmt.Printf("wall time       %s for %d epochs\n", res.WallTime.Round(1e6), len(res.Epochs))
	return 0
}

// failureHint is the next step a failed run with checkpoint file ckpt ("":
// none) suggests: a lost node, a round timeout or a protocol fault leave the
// checkpoint good, so a rerun resumes from it; a checkpoint this binary
// refuses fails every rerun until it is moved away. Any other failure gets
// no hint.
func failureHint(err error, ckpt string) string {
	switch {
	case ckpt == "":
		return ""
	case errors.Is(err, net.ErrCorruptCheckpoint):
		return fmt.Sprintf("%s cannot be resumed by this binary; delete or move it to start fresh", ckpt)
	case errors.Is(err, net.ErrPeerDown), errors.Is(err, net.ErrRoundTimeout), errors.Is(err, net.ErrProtocol):
		return fmt.Sprintf("restart any dead node and rerun the same command to resume from %s", ckpt)
	}
	return ""
}

// fleet is the coordinator of a -nodes run and the node processes it
// spawned from -node-bin (none when the nodes were already running).
type fleet struct {
	coord *net.Coordinator
	procs []*exec.Cmd
}

// connect dials the nodes at addrs, spawning them from nodeBin first when
// it is set, and ships each its shard and the exchange.
func connect(addrs []string, nodeBin string, g *graph.Graph, part []int, cfg dist.Config) (*fleet, error) {
	f := &fleet{coord: net.NewCoordinator(addrs, net.CoordOptions{})}
	if nodeBin != "" {
		for _, addr := range addrs {
			cmd := exec.Command(nodeBin, "-listen", addr)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				f.close(false)
				return nil, fmt.Errorf("spawn %s: %w", addr, err)
			}
			f.procs = append(f.procs, cmd)
		}
	}
	err := f.coord.Connect()
	if err == nil {
		err = f.coord.Setup(g, part, cfg)
	}
	if err != nil {
		f.close(false)
		return nil, err
	}
	return f, nil
}

// close ends the fleet. After a clean run every node is shut down; after a
// failed one the coordinator only hangs up, so nodes that are still alive
// can serve a rerun — except the ones this command spawned, which are
// killed, since the rerun spawns its own.
func (f *fleet) close(clean bool) {
	if clean {
		f.coord.Shutdown()
	} else {
		f.coord.Close()
	}
	for _, cmd := range f.procs {
		if !clean {
			cmd.Process.Kill()
		}
		cmd.Wait()
	}
}
