package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/gnn"
	"scgnn/internal/graph"
	"scgnn/internal/net"
	"scgnn/internal/partition"
	"scgnn/internal/worker"
)

// job is one workload set up and ready to train: the generated inputs, the
// runtime built over them, and the two hooks that differ per runtime.
type job struct {
	w    *workload
	seed int64
	ds   *datasets.Dataset
	cfg  dist.Config
	// part is the community-aligned partition; alt is the copy with 1 % of
	// the nodes moved, which the repartition workload toggles to and from.
	part, alt []int

	agg gnn.Aggregator
	// epochBytes returns the partition-crossing bytes of the epoch that
	// just ran (the engine and coordinator reset per epoch; the cluster
	// counts up, so its hook differences).
	epochBytes func() int64

	cluster *worker.Cluster
	fleet   *fleet
	// ckptPath is where the fleet workload saves its per-epoch checkpoint.
	ckptPath string
	onAlt    bool
}

func (j *job) close() {
	if j.cluster != nil {
		j.cluster.Close()
	}
	if j.fleet != nil {
		j.fleet.stop()
	}
}

func generate(sh shape, seed int64) *datasets.Dataset {
	return datasets.Generate(datasets.Spec{
		Name: sh.name, Nodes: sh.nodes, AvgDegree: sh.degree, Classes: sh.classes,
		FeatureDim: featureDim, Homophily: sh.homophily, LabelNoise: labelNoise, Seed: seed,
	})
}

// blockPartition splits the node ids into nparts contiguous ranges. The
// generator lays its planted communities out as contiguous id blocks, so
// this is the community-aligned partition a good edge-cut partitioner
// converges to, and its cut is the same to within a percent for every seed.
// partition.EdgeCut itself lands anywhere between 70k and 135k cross arcs on
// one 10k graph depending on its own seed (README, "Inputs"), which would
// bury a 10 % bound on every metric that scales with the cut.
func blockPartition(n int) []int {
	part := make([]int, n)
	for u := range part {
		part[u] = u * nparts / n
	}
	return part
}

// perturb returns a copy of part with 1 % of the nodes moved to a random
// partition, retrying the rare draw that empties one.
func perturb(part []int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	n := len(part)
	moves := max(n/100, 1)
	for {
		next := append([]int(nil), part...)
		for m := 0; m < moves; m++ {
			next[rng.Intn(n)] = rng.Intn(nparts)
		}
		if graph.ValidatePartition(n, next, nparts) == nil {
			return next
		}
	}
}

// setUp generates the workload's inputs from seed and builds its runtime.
// dir holds the fleet's sockets and checkpoint. With a tracer it records the
// set-up spans and, between partition and build, times the planner's two
// public entry points standalone (the runtimes run them inside their
// constructors, where bench/ cannot put a span) and the edge-cut partitioner,
// whose output the benchmark does not use.
func setUp(w *workload, seed int64, dir string, tr *tracer) (*job, error) {
	j := &job{w: w, seed: seed, cfg: w.method(seed, w.epochs())}
	id := tr.begin("setup")
	defer tr.end(id)

	tr.in("gen", func() { j.ds = generate(w.shape, seed) })
	j.part = blockPartition(j.ds.NumNodes())
	if w.boundary == repartitionBoundary {
		j.alt = perturb(j.part, seed+1)
	}
	if tr != nil {
		tr.in("partition", func() {
			partition.Partition(j.ds.Graph, nparts, partition.EdgeCut, partition.Config{Seed: seed})
		})
		tr.in("buckets", func() { graph.ExtractArcBuckets(j.ds.Graph, j.part, nparts) })
		if j.cfg.Semantic {
			var err error
			tr.in("plan", func() { _, err = core.NewPlanCache(j.ds.Graph, j.part, nparts, j.cfg.Plan) })
			if err != nil {
				return nil, err
			}
		}
	}

	var err error
	tr.in("build", func() { err = j.build(dir) })
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

func (j *job) build(dir string) error {
	g := j.ds.Graph
	switch j.w.runtime {
	case onEngine:
		eng := dist.NewEngine(g, j.part, nparts, j.cfg)
		j.agg = eng
		j.epochBytes = func() int64 { return eng.CaptureEpoch().TotalBytes }
	case onCluster:
		j.cluster = worker.NewClusterFromConfig(g, j.part, nparts, j.cfg)
		j.agg = j.cluster
		j.epochBytes = clusterEpochBytes(j.cluster)
	case onFleet:
		f, err := startFleet(filepath.Join(dir, "fleet"), nparts)
		if err != nil {
			return err
		}
		j.fleet = f
		if err := f.coord.Setup(g, j.part, j.cfg); err != nil {
			return err
		}
		j.agg = f.coord
		j.epochBytes = func() int64 { return f.coord.CaptureEpoch().TotalBytes }
		j.ckptPath = filepath.Join(dir, "train.ckpt")
	default:
		return fmt.Errorf("workload %s: unknown runtime", j.w.name)
	}
	return nil
}

func clusterEpochBytes(c *worker.Cluster) func() int64 {
	var seen int64
	return func() int64 {
		total, _ := c.Traffic()
		d := total - seen
		seen = total
		return d
	}
}

// newModel builds the 2-layer GCN over agg with weights drawn from seed.
func (j *job) newModel(agg gnn.Aggregator) *gnn.GCN {
	dims := []int{j.ds.FeatureDim(), hidden, j.ds.NumClasses}
	return gnn.NewGCN(agg, dims, rand.New(rand.NewSource(j.seed)))
}

// boundaryDue reports whether the workload's between-epoch operation runs
// before the given epoch.
func (j *job) boundaryDue(epoch int) bool {
	return j.w.boundary != noBoundary && epoch%j.w.every == 0
}

// runBoundary performs the workload's between-epoch operation: the fleet's
// collect-and-save checkpoint exactly as scgnn-coord -checkpoint does it, or
// the cluster's repartition to the other of its two partitions.
func (j *job) runBoundary(model *gnn.GCN, state func() *gnn.TrainerState, epoch int) error {
	switch j.w.boundary {
	case checkpointBoundary:
		coord := j.fleet.coord
		blobs, err := coord.CollectStates()
		if err != nil {
			return err
		}
		ck := &net.TrainingCheckpoint{
			Epoch: epoch, Part: coord.Part(),
			Params: net.CaptureParams(model.Params()), Trainer: state(), Nodes: blobs,
		}
		return ck.Save(j.ckptPath)
	case repartitionBoundary:
		next := j.alt
		if j.onAlt {
			next = j.part
		}
		j.onAlt = !j.onAlt
		_, err := j.cluster.Repartition(next)
		return err
	}
	return nil
}
