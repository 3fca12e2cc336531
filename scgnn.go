// Package scgnn is the public API of the SC-GNN reproduction: a
// communication-efficient semantic compression for distributed training of
// graph neural networks (Wang, Wu, Wang — DAC 2024).
//
// Distributed full-graph GNN training spends most of its epoch exchanging
// boundary embeddings and gradients between partitions (the
// "aggregate-wall"). SC-GNN compresses that traffic by clustering boundary
// nodes into semantically cohesive groups (a squared-overlap similarity
// measure drives k-means), approximating each group's cross-partition edges
// by a full bipartite map, and fusing all of the group's messages into a
// single semantic message weighted by local-SALSA node weights. Residual
// one-to-one connections can be pruned entirely (differential optimization)
// with negligible accuracy cost.
//
// The package bundles everything the paper's pipeline needs: synthetic
// dataset generators calibrated to Reddit/Yelp/Ogbn-products/PubMed shapes,
// node-cut/edge-cut/random graph partitioners, a full-batch GCN/GraphSAGE
// training stack with hand-derived gradients, a byte-exact communication
// fabric with an analytic epoch-time model, the three SOTA baselines
// (sampling, quantization, delayed transmission), and harnesses that
// regenerate every table and figure of the paper's evaluation.
//
// # Quick start
//
//	ds, _ := scgnn.LoadDataset("reddit-sim", 1)
//	part := scgnn.PartitionGraph(ds, 4, scgnn.NodeCut, 1)
//	res, err := scgnn.Train(ds, part, 4, scgnn.Semantic(1), scgnn.TrainOptions{Epochs: 60})
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("accuracy %.4f, %.3f MB/epoch\n", res.TestAcc, res.MBPerEpoch())
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package scgnn

import (
	"scgnn/internal/core"
	"scgnn/internal/datasets"
	"scgnn/internal/dist"
	"scgnn/internal/exp"
	"scgnn/internal/graph"
	"scgnn/internal/partition"
)

// Dataset is a full-batch node-classification dataset: graph, features,
// labels, and train/val/test masks.
type Dataset = datasets.Dataset

// DatasetSpec parameterizes the synthetic dataset generator.
type DatasetSpec = datasets.Spec

// LoadDataset returns one of the four benchmark datasets by name:
// "reddit-sim", "yelp-sim", "ogbn-products-sim", or "pubmed-sim".
func LoadDataset(name string, seed int64) (*Dataset, error) {
	return datasets.ByName(name, seed)
}

// DatasetNames lists the benchmark datasets in the paper's order.
func DatasetNames() []string { return datasets.Names() }

// GenerateDataset builds a synthetic dataset from an explicit spec — use for
// custom densities, class counts, or homophily levels (Fig. 12(a) sweeps
// density this way).
func GenerateDataset(spec DatasetSpec) *Dataset { return datasets.Generate(spec) }

// PartitionMethod selects a graph partitioner.
type PartitionMethod = partition.Method

// Partitioner choices (paper Sec. 4 / Table 2): node-cut composes best with
// semantic compression; random-cut is the low-quality baseline.
const (
	NodeCut   = partition.NodeCut
	EdgeCut   = partition.EdgeCut
	RandomCut = partition.RandomCut
)

// PartitionGraph splits the dataset's graph into nparts partitions and
// returns the node→partition assignment.
func PartitionGraph(ds *Dataset, nparts int, m PartitionMethod, seed int64) []int {
	return partition.Partition(ds.Graph, nparts, m, partition.Config{Seed: seed})
}

// PartitionStats summarizes partition quality (cut edges, boundary nodes,
// replication factor, balance).
type PartitionStats = partition.Stats

// EvaluatePartition computes quality statistics for an assignment.
func EvaluatePartition(ds *Dataset, part []int, nparts int) PartitionStats {
	return partition.Evaluate(ds.Graph, part, nparts)
}

// Method configures the cross-partition exchange of a training run. Feature
// flags compose — see Vanilla, Sampling, Quant, Delay, Semantic — and
// combinations reproduce the compatibility study of Fig. 12(b).
type Method = dist.Config

// Vanilla is the uncompressed exchange (Fig. 7(a)): one message per
// (boundary row, peer), fanned out over the row's arcs at the receiver.
func Vanilla() Method { return dist.Vanilla() }

// Sampling transmits each boundary row's message to a peer with the given
// probability, rescaling kept messages to stay unbiased (BNS-GCN-style
// boundary-node sampling).
func Sampling(rate float64, seed int64) Method { return dist.Sampling(rate, seed) }

// Quant transmits payloads at the given bit width via per-message affine
// quantization (AdaQP-style baseline).
func Quant(bits int) Method { return dist.Quant(bits) }

// Delay transmits fresh values every period epochs and replays stale values
// in between (Dorylus-style baseline).
func Delay(period int) Method { return dist.Delay(period) }

// Semantic is SC-GNN: cohesion-driven grouping at the EEP-selected group
// count plus in-group up-sampling compression.
func Semantic(seed int64) Method {
	return dist.Semantic(core.PlanConfig{Grouping: core.GroupingConfig{Seed: seed}})
}

// SemanticOptions tunes the semantic compressor beyond the defaults.
type SemanticOptions struct {
	// Groups fixes the k-means group count; 0 selects it at the elbow
	// equilibrium point (EEP) of the inertia curve.
	Groups int
	// DropO2O prunes residual one-to-one connections entirely — the
	// differential optimization of Sec. 5.3.
	DropO2O bool
	// Jaccard switches the similarity measure to the Jaccard baseline
	// (for ablations mirroring Fig. 6).
	Jaccard bool
	// Seed drives grouping.
	Seed int64
}

func (opt SemanticOptions) planConfig() core.PlanConfig {
	cfg := core.GroupingConfig{K: opt.Groups, Seed: opt.Seed}
	if opt.Jaccard {
		cfg.Sim = core.JaccardSimilarity{}
	}
	plan := core.PlanConfig{Grouping: cfg}
	if opt.DropO2O {
		plan.Drop = core.DropO2O
	}
	return plan
}

// SemanticWith builds a semantic Method from explicit options.
func SemanticWith(opt SemanticOptions) Method {
	return dist.Semantic(opt.planConfig())
}

// TrainOptions controls a distributed training run.
type TrainOptions = dist.RunConfig

// Result reports accuracy, exact communication volume, and modeled epoch
// time for a run.
type Result = dist.Result

// Train runs distributed full-batch training of a GCN (or GraphSAGE via
// TrainOptions.Model) over the partitioned dataset, with the cross-partition
// halo carried by the given Method. Traffic is byte-exact; accuracy is
// measured, not modeled. A partition that does not cover the graph with
// nparts non-empty parts, a quantisation width of 17 to 31 bits, an unknown
// model, or a failed run is an error.
func Train(ds *Dataset, part []int, nparts int, m Method, opt TrainOptions) (*Result, error) {
	return dist.Run(ds, part, nparts, m, opt)
}

// ConnectionCensus tallies the cross-partition connection types of
// Fig. 2(c)/(d): O2O, O2M, M2O, M2M.
type ConnectionCensus = graph.ConnCensus

// CensusOf classifies every cross-partition connection of the partitioned
// graph (the Fig. 2(d) statistic).
func CensusOf(ds *Dataset, part []int, nparts int) ConnectionCensus {
	return graph.Census(graph.AllDBGs(ds.Graph, part, nparts))
}

// Plan is the static semantic-compression plan for one ordered partition
// pair: groups, residual O2O edges, and compression ratio.
type Plan = core.PairPlan

// BuildPlans constructs the semantic compression plan for every ordered
// partition pair (the offline step of Fig. 8, between graph partition and
// node update). The partition is validated first: a wrong-length vector,
// out-of-range ids, or an empty partition return an error.
func BuildPlans(ds *Dataset, part []int, nparts int, opt SemanticOptions) ([]*Plan, error) {
	return core.BuildAllPlans(ds.Graph, part, nparts, opt.planConfig())
}

// PlanCache retains per-pair plans across repartitions: Repartition diffs the
// new partition's boundary sets against the cached ones and rebuilds only the
// pairs that changed, with output bit-identical to a from-scratch BuildPlans.
type PlanCache = core.PlanCache

// NewPlanCache builds every pair's plan from scratch (same output as
// BuildPlans) and retains the state incremental repartitioning needs.
func NewPlanCache(ds *Dataset, part []int, nparts int, opt SemanticOptions) (*PlanCache, error) {
	return core.NewPlanCache(ds.Graph, part, nparts, opt.planConfig())
}

// ExperimentIDs lists the reproduction experiments (one per paper table or
// figure; see DESIGN.md §4).
func ExperimentIDs() []string { return exp.IDs() }

// RunExperiment regenerates one paper table/figure and returns its rendered
// report. An unknown id, or an experiment that fails, is an error.
func RunExperiment(id string, seed int64, epochs int) (string, error) {
	r, err := exp.Run(id, exp.Options{Seed: seed, Epochs: epochs})
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
